//! The cluster driver: runs an SPMD closure on every virtual processor,
//! on one of two execution backends (see [`crate::exec`]): free-running
//! thread-per-rank, or the event-driven executor that multiplexes ranks on
//! a small admission pool with structural deadlock detection.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use crate::cost::CostModel;
use crate::counters::ProcStats;
use crate::exec::{host_parallelism, Backend, ExecMode, Scheduler, WaitBoard, ABORT_SENTINEL};
use crate::fault::FaultPlan;
use crate::mailbox::Mailbox;
use crate::proc::{Proc, SharedMachine};

/// Configuration of one simulated machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Cost model (network, disk, compute, cache).
    pub cost: CostModel,
    /// Execution backend (see [`crate::exec`]): [`Backend::Thread`]
    /// (default, the historical baseline of record) or [`Backend::Event`]
    /// (event-driven executor, required for large `p` sweeps). Both are
    /// bit-identical in every observable output.
    pub backend: Backend,
    /// Admission width of the event-driven executor: how many rank tasks
    /// may run concurrently (0 = auto: the host's available parallelism).
    /// Ignored by the thread backend. Any width produces identical
    /// outputs; width only trades wall-clock speed against memory traffic.
    pub event_workers: usize,
    /// Real-time receive timeout used as a deadlock detector **by the
    /// thread backend only**. At run start it is scaled by the machine's
    /// thread oversubscription (`ceil(p / host cores)`), so a correct run
    /// on a slow or oversubscribed host is not spuriously killed. The
    /// event backend has no wall-clock mechanism at all — its deadlock
    /// detection is structural (see [`crate::exec`]).
    pub recv_timeout: Duration,
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

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cost: CostModel::default(),
            backend: Backend::Thread,
            event_workers: 0,
            recv_timeout: Duration::from_secs(120),
            spans: false,
            gauges: false,
            faults: FaultPlan::default(),
            record: false,
        }
    }
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
    /// return; panics (propagating the payload) if any processor panics.
    /// The execution backend ([`MachineConfig::backend`]) decides how
    /// ranks map onto OS threads; outputs are bit-identical either way.
    pub fn run<T, F>(&self, f: F) -> RunOutput<T>
    where
        T: Send,
        F: Fn(&mut Proc) -> T + Sync,
    {
        let exec = match self.config.backend {
            Backend::Thread => ExecMode::Thread {
                timeout: self.scaled_timeout(),
                board: WaitBoard::new(self.nprocs),
            },
            Backend::Event => {
                let workers = if self.config.event_workers > 0 {
                    self.config.event_workers
                } else {
                    host_parallelism()
                };
                ExecMode::Event {
                    sched: Scheduler::new(self.nprocs, workers),
                }
            }
        };
        let shared = Arc::new(SharedMachine {
            cost: self.config.cost.clone(),
            mailboxes: (0..self.nprocs).map(|_| Mailbox::new()).collect(),
            exec,
            spans: self.config.spans,
            gauges: self.config.gauges,
            faults: self.config.faults.clone(),
            faults_inert: self.config.faults.is_inert(),
            record: self.config.record,
        });
        let f = &f;
        let event = matches!(self.config.backend, Backend::Event);
        let mut out: Vec<Option<(T, ProcStats)>> = (0..self.nprocs).map(|_| None).collect();
        let mut panics: Vec<(usize, Box<dyn std::any::Any + Send>)> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.nprocs)
                .map(|rank| {
                    let shared = Arc::clone(&shared);
                    scope.spawn(move || {
                        if event {
                            // Event backend: the carrier thread is the
                            // resumable task's stack. Wait for an admission
                            // slot, run the body (blocking points inside
                            // hand the slot back), and tear the whole run
                            // down on a panic so no rank parks forever
                            // waiting for a message that will never come.
                            let sched = shared.exec.scheduler();
                            sched.admit(rank);
                            let result = catch_unwind(AssertUnwindSafe(|| {
                                let mut proc =
                                    Proc::new(rank, shared.mailboxes.len(), Arc::clone(&shared));
                                let r = f(&mut proc);
                                (r, proc.into_stats())
                            }));
                            match result {
                                Ok(pair) => {
                                    shared.exec.scheduler().finish(rank);
                                    pair
                                }
                                Err(payload) => {
                                    shared.exec.scheduler().abort_for_panic(rank);
                                    resume_unwind(payload);
                                }
                            }
                        } else {
                            let mut proc = Proc::new(rank, shared.mailboxes.len(), shared);
                            let result = f(&mut proc);
                            (result, proc.into_stats())
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

    /// Effective wall-clock receive timeout of the thread backend: the
    /// configured [`MachineConfig::recv_timeout`] scaled by thread
    /// oversubscription (`ceil(p / host cores)`), so p=64 ranks on a
    /// 4-core host get 16x the time before the deadlock detector fires.
    fn scaled_timeout(&self) -> Duration {
        let cores = host_parallelism();
        let factor = self.nprocs.div_ceil(cores).max(1) as u32;
        self.config.recv_timeout.saturating_mul(factor)
    }
}
