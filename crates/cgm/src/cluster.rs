//! The cluster driver: runs an SPMD closure on every virtual processor,
//! one carrier thread per rank (see [`crate::exec`] for how a receive
//! blocks and how a deadlock or a rank's panic ends the run).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::cost::CostModel;
use crate::counters::ProcStats;
use crate::exec::{Exec, ABORT_SENTINEL};
use crate::fault::FaultPlan;
use crate::proc::{Proc, SharedMachine};

/// Configuration of one simulated machine. The default is the paper's SP2
/// cost model with every observation off and an inert fault plan.
#[derive(Debug, Clone, Default)]
pub struct MachineConfig {
    /// Cost model (network, disk, compute, cache).
    pub cost: CostModel,
    /// Record hierarchical spans (see [`crate::span`]). Pure observation:
    /// enabling spans never changes a run's virtual times.
    pub spans: bool,
    /// Record time-series gauges (see [`crate::gauge`]). Pure observation,
    /// like spans: enabling gauges never changes a run's virtual times or
    /// counters.
    pub gauges: bool,
    /// Deterministic fault-injection plan (see [`crate::fault`]); the
    /// default plan is inert and changes nothing.
    pub faults: FaultPlan,
    /// Record the replayable event DAG (see [`crate::evg`]) — the source
    /// of every timestamped view ([`crate::export`], [`crate::trace`]) and
    /// of what-if replay via [`mod@crate::replay`]. Pure observation, like
    /// spans and gauges: enabling recording never changes a run's virtual
    /// times or counters. Record with spans on if views should attribute
    /// events to spans and span-name cost overrides should apply during
    /// replay.
    pub record: bool,
}

/// A simulated coarse-grained machine of `p` processors.
#[derive(Debug, Clone)]
pub struct Cluster {
    nprocs: usize,
    config: MachineConfig,
}

/// Everything a cluster run produces: per-rank results and statistics.
#[derive(Debug, Clone)]
pub struct RunOutput<T> {
    /// Per-rank return values of the SPMD closure, indexed by rank.
    pub results: Vec<T>,
    /// Per-rank statistics (virtual finish time, counters), indexed by rank.
    pub stats: Vec<ProcStats>,
}

impl<T> RunOutput<T> {
    /// Parallel runtime of the run: the maximum virtual finish time.
    pub fn makespan(&self) -> f64 {
        self.stats
            .iter()
            .map(|s| s.finish_time)
            .fold(0.0_f64, f64::max)
    }

    /// Aggregate counters over all processors.
    pub fn total_counters(&self) -> crate::counters::Counters {
        let mut total = crate::counters::Counters::default();
        for s in &self.stats {
            total.merge(&s.counters);
        }
        total
    }

    /// Load-imbalance ratio: makespan divided by mean finish time (1.0 is a
    /// perfectly balanced run).
    pub fn imbalance(&self) -> f64 {
        let mean = self.stats.iter().map(|s| s.finish_time).sum::<f64>()
            / self.stats.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            self.makespan() / mean
        }
    }
}

impl Cluster {
    /// Machine of `p` processors with the default cost model.
    pub fn new(nprocs: usize) -> Self {
        Self::with_config(nprocs, MachineConfig::default())
    }

    /// Machine of `p` processors with an explicit configuration.
    pub fn with_config(nprocs: usize, config: MachineConfig) -> Self {
        assert!(nprocs >= 1, "a machine needs at least one processor");
        Cluster { nprocs, config }
    }

    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Run `f` on every processor (SPMD). Blocks until all processors
    /// return; panics if any processor panics or the run deadlocks, with
    /// the failing rank's own message (not that of a peer that was only
    /// woken to unwind).
    pub fn run<T, F>(&self, f: F) -> RunOutput<T>
    where
        T: Send,
        F: Fn(&mut Proc) -> T + Sync,
    {
        let shared = Arc::new(SharedMachine {
            cost: self.config.cost.clone(),
            exec: Exec::new(self.nprocs),
            spans: self.config.spans,
            gauges: self.config.gauges,
            faults: self.config.faults.clone(),
            faults_inert: self.config.faults.is_inert(),
            record: self.config.record,
        });
        let f = &f;
        let nprocs = self.nprocs;
        let mut out: Vec<Option<(T, ProcStats)>> = (0..nprocs).map(|_| None).collect();
        let mut panics: Vec<(usize, Box<dyn std::any::Any + Send>)> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..nprocs)
                .map(|rank| {
                    let shared = Arc::clone(&shared);
                    scope.spawn(move || {
                        // Catch a panic of the body (or of closing its
                        // statistics) here, on the carrier: the run must be
                        // torn down before this thread is joined, or peers
                        // parked on a message this rank will never send
                        // would sleep forever.
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            let mut proc = Proc::new(rank, nprocs, Arc::clone(&shared));
                            let r = f(&mut proc);
                            (r, proc.into_stats())
                        }));
                        match result {
                            Ok(pair) => {
                                shared.exec.finish(rank);
                                pair
                            }
                            Err(payload) => {
                                shared.exec.abort(format!(
                                    "virtual processor {rank} panicked; aborting the remaining ranks"
                                ));
                                resume_unwind(payload);
                            }
                        }
                    })
                })
                .collect();
            for (rank, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok(pair) => out[rank] = Some(pair),
                    Err(payload) => panics.push((rank, payload)),
                }
            }
        });
        if !panics.is_empty() {
            // Prefer a root-cause panic over an abort-sentinel unwind (a
            // rank woken from a park only because some *other* rank failed
            // or a structural deadlock was detected).
            let msg_of = |payload: &Box<dyn std::any::Any + Send>| -> String {
                payload
                    .downcast_ref::<String>()
                    .map(|s| s.as_str())
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic>")
                    .to_string()
            };
            for (rank, payload) in &panics {
                let msg = msg_of(payload);
                if !msg.starts_with(ABORT_SENTINEL) {
                    panic!("cgm: virtual processor {rank} panicked: {msg}");
                }
            }
            let reason = msg_of(&panics[0].1);
            panic!("cgm: {}", reason.trim_start_matches(ABORT_SENTINEL));
        }
        let (results, stats): (Vec<T>, Vec<ProcStats>) =
            out.into_iter().map(Option::unwrap).unzip();
        RunOutput { results, stats }
    }
}
