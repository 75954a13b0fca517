//! Execution backends for the cluster driver: how virtual processors are
//! mapped onto OS threads, and how a blocked receive is detected as a
//! deadlock.
//!
//! # The two backends
//!
//! * [`Backend::Thread`] — the historical model: every rank's SPMD closure
//!   runs on its own free-running OS thread; a receive with no matching
//!   message parks on the mailbox's condition variable. The only deadlock
//!   detector is a **wall-clock** timeout, scaled by the machine's thread
//!   oversubscription (`p` ranks on `c` cores multiply the configured
//!   timeout by `ceil(p / c)`), so a slow or oversubscribed host does not
//!   spuriously kill a correct run.
//! * [`Backend::Event`] — the event-driven executor: rank bodies become
//!   resumable tasks multiplexed on a small admission pool. The virtual
//!   clock discipline makes every blocking point explicit — `recv` (and
//!   everything built on it: `wait`, `barrier`, the collectives) is the
//!   *only* operation that can physically block on another rank; device
//!   waits and I/O stalls are pure virtual-time arithmetic. A task that
//!   blocks hands its run slot back to the scheduler and parks; a
//!   matching send re-enqueues it. At most `workers` tasks are ever
//!   runnable, so `p = 1024` ranks run comfortably on one core with no
//!   thread thrash, and **no wall-clock timer exists at all**: deadlock
//!   detection is structural. When the machine reaches global quiescence
//!   (no task running or ready) while some tasks still wait for messages,
//!   no future send can ever occur — the scheduler reports every blocked
//!   rank with the `(src, tag)` it waits on and names the wait-for cycle.
//!
//! Both backends produce bit-identical outputs: finish-time bits, counters,
//! spans, gauges and recorded event DAGs. Receives match messages per
//! `(src, tag)` in sender program order, and every virtual-time quantity is
//! a pure function of the matched messages, so physical scheduling — free
//! running threads or cooperative multiplexing — cannot leak into any
//! observable. The identity suites in `crates/bench/tests` assert this for
//! every harness configuration.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

/// Sentinel prefix on panic payloads raised by ranks that were *aborted*
/// (woken from a park because another rank panicked or a structural
/// deadlock was detected) rather than failing themselves. The driver uses
/// it to surface the root cause instead of a bystander's unwind.
pub(crate) const ABORT_SENTINEL: &str = "cgm-exec-abort: ";

/// How the cluster driver maps virtual processors onto OS threads. See the
/// [module docs](self) for the full story.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// One free-running OS thread per rank; wall-clock deadlock detector
    /// (scaled by oversubscription). The historical baseline of record.
    #[default]
    Thread,
    /// Event-driven executor: ranks are resumable tasks multiplexed on a
    /// small worker-admission pool; structural (quiescence-based) deadlock
    /// detection with no wall-clock mechanism.
    Event,
}

impl Backend {
    /// Read the backend from the `PDC_BACKEND` environment variable
    /// (`"event"` selects [`Backend::Event`]; anything else, including
    /// unset, keeps the default [`Backend::Thread`]). The bench harness
    /// routes every machine it builds through this, so one variable flips
    /// a whole figure run.
    pub fn from_env() -> Backend {
        match std::env::var("PDC_BACKEND").as_deref() {
            Ok("event") => Backend::Event,
            _ => Backend::Thread,
        }
    }

    /// Stable lowercase name (for logs and bench summaries).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Thread => "thread",
            Backend::Event => "event",
        }
    }
}

/// Host parallelism used for timeout scaling and worker-pool sizing
/// (1 when the platform cannot report it).
pub(crate) fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Per-run execution machinery, held by the shared machine state: the
/// thread backend's wall-clock detector (pre-scaled timeout plus the wait
/// board that makes its panic message name every blocked rank), or the
/// event backend's scheduler.
pub(crate) enum ExecMode {
    /// Free-running threads; wall-clock deadlock detector.
    Thread {
        /// Effective (oversubscription-scaled) receive timeout.
        timeout: std::time::Duration,
        /// Who is parked on what, for the timeout diagnostic.
        board: WaitBoard,
    },
    /// Event-driven executor.
    Event {
        /// Admission control + structural deadlock detection.
        sched: Scheduler,
    },
}

impl ExecMode {
    /// The event scheduler; panics if called on the thread mode (driver
    /// bug, not a user error).
    pub(crate) fn scheduler(&self) -> &Scheduler {
        match self {
            ExecMode::Event { sched } => sched,
            ExecMode::Thread { .. } => unreachable!("thread backend has no scheduler"),
        }
    }
}

/// One rank's execution state, as seen by the [`Scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankState {
    /// Waiting for an admission slot (either freshly spawned or re-enqueued
    /// after a matching message arrived).
    Ready,
    /// Admitted: the rank's body is executing on its carrier thread.
    Running,
    /// Parked inside a receive, waiting for a message matching
    /// `(src, tag)` from physical rank `src`.
    Blocked { src: usize, tag: u32 },
    /// The body returned (or the rank was torn down by an abort).
    Done,
}

struct SchedState {
    states: Vec<RankState>,
    /// FIFO of ranks waiting for an admission slot.
    ready: VecDeque<usize>,
    /// Number of currently admitted (Running) ranks.
    running: usize,
    /// Admission width: at most this many ranks run concurrently.
    workers: usize,
    /// Wake-pending flags: a message was pushed to this rank's mailbox
    /// while it was Running (racing with its own blocking decision). The
    /// next `block` call consumes the flag and re-checks the mailbox
    /// instead of parking, which closes the lost-wakeup window.
    signaled: Vec<bool>,
    /// Set exactly once, on structural deadlock or a rank panic; every
    /// parked rank wakes and unwinds with this reason.
    abort: Option<String>,
}

/// The event-driven executor's scheduler: admission control plus
/// structural deadlock detection. One instance per cluster run.
pub(crate) struct Scheduler {
    state: Mutex<SchedState>,
    /// Per-rank parking spot (all paired with the one `state` mutex).
    cvs: Vec<Condvar>,
}

impl Scheduler {
    pub(crate) fn new(nprocs: usize, workers: usize) -> Scheduler {
        assert!(workers >= 1, "the event executor needs at least one worker");
        Scheduler {
            state: Mutex::new(SchedState {
                states: vec![RankState::Ready; nprocs],
                ready: VecDeque::new(),
                running: 0,
                workers,
                signaled: vec![false; nprocs],
                abort: None,
            }),
            cvs: (0..nprocs).map(|_| Condvar::new()).collect(),
        }
    }

    /// Hand the caller's run slot to the next ready rank, or retire it.
    /// Caller must hold the state lock and must already have left the
    /// Running state.
    fn release_slot(&self, st: &mut SchedState) {
        if let Some(next) = st.ready.pop_front() {
            st.states[next] = RankState::Running;
            self.cvs[next].notify_all();
        } else {
            st.running -= 1;
        }
    }

    /// Global-quiescence check, run whenever a slot retires without a
    /// successor: if nothing is running or ready but some ranks still wait
    /// for messages, no future send can occur — structural deadlock.
    /// Caller must hold the state lock.
    fn check_quiescence(&self, st: &mut SchedState) {
        // A rank is Ready both while queued for a slot *and* before its
        // carrier thread has called `admit` at all (the initial state), so
        // testing the state vector — not just the ready queue — is what
        // makes this safe against carriers that have not started yet.
        if st.abort.is_some()
            || st.running > 0
            || st.states.iter().any(|s| *s == RankState::Ready)
        {
            return;
        }
        let blocked: Vec<(usize, usize, u32)> = st
            .states
            .iter()
            .enumerate()
            .filter_map(|(r, s)| match *s {
                RankState::Blocked { src, tag } => Some((r, src, tag)),
                _ => None,
            })
            .collect();
        if blocked.is_empty() {
            return; // everything Done: a normal finish
        }
        st.abort = Some(deadlock_report(&st.states, &blocked));
        for cv in &self.cvs {
            cv.notify_all();
        }
    }

    /// Carrier entry: wait for an admission slot before running the body.
    /// Panics (with the abort sentinel) if the run was aborted first.
    pub(crate) fn admit(&self, rank: usize) {
        let mut st = self.state.lock();
        if st.running < st.workers && st.abort.is_none() {
            st.states[rank] = RankState::Running;
            st.running += 1;
            return;
        }
        st.ready.push_back(rank);
        loop {
            if let Some(reason) = &st.abort {
                panic!("{ABORT_SENTINEL}{reason}");
            }
            if st.states[rank] == RankState::Running {
                return;
            }
            self.cvs[rank].wait(&mut st);
        }
    }

    /// Blocking point: the rank found no matching message in its mailbox.
    /// Consumes a pending signal (meaning: re-check the mailbox, a message
    /// raced in) or parks until a matching push re-admits the rank. On
    /// return the caller must re-check its mailbox. Panics (with the abort
    /// sentinel) if the run aborts while parked — including when this very
    /// call completes the quiescent wait set.
    pub(crate) fn block(&self, rank: usize, src: usize, tag: u32) {
        let mut st = self.state.lock();
        if st.signaled[rank] {
            st.signaled[rank] = false;
            return;
        }
        st.states[rank] = RankState::Blocked { src, tag };
        self.release_slot(&mut st);
        self.check_quiescence(&mut st);
        loop {
            if let Some(reason) = &st.abort {
                panic!("{ABORT_SENTINEL}{reason}");
            }
            if st.states[rank] == RankState::Running {
                return;
            }
            self.cvs[rank].wait(&mut st);
        }
    }

    /// A message for `dst` matching `(src, tag)` was pushed. Wake `dst` if
    /// it is parked on exactly that match; flag it if it is running (it may
    /// be deciding to block right now); do nothing otherwise — a rank
    /// blocked on a *different* match will find this message in its mailbox
    /// on a later receive, and a ready rank re-checks its mailbox anyway.
    pub(crate) fn notify_push(&self, dst: usize, src: usize, tag: u32) {
        let mut st = self.state.lock();
        match st.states[dst] {
            RankState::Blocked { src: s, tag: t } if s == src && t == tag => {
                if st.running < st.workers {
                    st.states[dst] = RankState::Running;
                    st.running += 1;
                    self.cvs[dst].notify_all();
                } else {
                    st.states[dst] = RankState::Ready;
                    st.ready.push_back(dst);
                }
            }
            RankState::Running => st.signaled[dst] = true,
            _ => {}
        }
    }

    /// The rank's body returned normally. Retires its slot; a rank still
    /// blocked on this now-finished rank is a deadlock, caught by the
    /// quiescence check.
    pub(crate) fn finish(&self, rank: usize) {
        let mut st = self.state.lock();
        st.states[rank] = RankState::Done;
        self.release_slot(&mut st);
        self.check_quiescence(&mut st);
    }

    /// The rank's body panicked (anywhere — its own bug, or an abort
    /// sentinel from a park). Tears the run down: every parked rank wakes
    /// and unwinds, so the driver's joins cannot hang on ranks waiting for
    /// messages the dead rank will never send. Idempotent; the first
    /// reason wins.
    pub(crate) fn abort_for_panic(&self, rank: usize) {
        let mut st = self.state.lock();
        if st.states[rank] == RankState::Running {
            st.states[rank] = RankState::Done;
            self.release_slot(&mut st);
        } else {
            st.states[rank] = RankState::Done;
        }
        if st.abort.is_none() {
            st.abort = Some(format!(
                "virtual processor {rank} panicked; aborting the remaining ranks"
            ));
        }
        for cv in &self.cvs {
            cv.notify_all();
        }
    }
}

/// Render the structural-deadlock diagnostic: every blocked rank with the
/// `(src, tag)` it waits on, finished ranks it may be waiting on, and the
/// wait-for cycle when one exists.
fn deadlock_report(states: &[RankState], blocked: &[(usize, usize, u32)]) -> String {
    use std::fmt::Write;
    let mut out = format!(
        "structural deadlock: global quiescence with {} rank(s) blocked and \
         no send in flight:\n",
        blocked.len()
    );
    for &(r, src, tag) in blocked {
        let note = match states[src] {
            RankState::Done => " (which already finished)",
            _ => "",
        };
        let _ = writeln!(out, "  rank {r} <- recv(src={src}, tag={tag:#x}){note}");
    }
    // Each blocked rank has exactly one wait-for edge (rank -> src), so a
    // cycle, if any, is found by walking edges from any blocked rank.
    let edge = |r: usize| -> Option<usize> {
        match states[r] {
            RankState::Blocked { src, .. } => Some(src),
            _ => None,
        }
    };
    let mut on_any_cycle: Option<Vec<usize>> = None;
    for &(start, _, _) in blocked {
        let mut walk = vec![start];
        let mut cur = start;
        while let Some(next) = edge(cur) {
            if let Some(pos) = walk.iter().position(|&w| w == next) {
                on_any_cycle = Some(walk[pos..].to_vec());
                break;
            }
            walk.push(next);
            cur = next;
        }
        if on_any_cycle.is_some() {
            break;
        }
    }
    match on_any_cycle {
        Some(cycle) => {
            let mut names: Vec<String> = cycle.iter().map(|r| r.to_string()).collect();
            names.push(cycle[0].to_string());
            let _ = writeln!(out, "  wait-for cycle: {}", names.join(" -> "));
        }
        None => {
            let _ = writeln!(
                out,
                "  no wait-for cycle: some rank waits on a peer that finished \
                 (or never sends) — a missing send, not a message-order inversion"
            );
        }
    }
    out.push_str("  (event backend: detection is structural — no wall-clock timeout involved)");
    out
}

/// Wall-clock wait registry for the **thread** backend's deadlock
/// detector: each rank notes what it is waiting for while parked on its
/// mailbox, so a timeout panic can report every blocked rank instead of a
/// bare "timed out". Pure diagnostics — never touches virtual time.
#[derive(Default)]
pub(crate) struct WaitBoard {
    waits: Mutex<Vec<Option<(usize, u32)>>>,
}

impl WaitBoard {
    pub(crate) fn new(nprocs: usize) -> WaitBoard {
        WaitBoard { waits: Mutex::new(vec![None; nprocs]) }
    }

    /// Note that `rank` is about to park waiting for `(src, tag)`.
    pub(crate) fn enter(&self, rank: usize, src: usize, tag: u32) {
        self.waits.lock()[rank] = Some((src, tag));
    }

    /// The wait ended with a match. A timed-out wait keeps its entry: that
    /// rank is still blocked when the timeout panic takes its snapshot.
    pub(crate) fn exit(&self, rank: usize) {
        self.waits.lock()[rank] = None;
    }

    /// Snapshot of every currently waiting rank, for the timeout panic.
    pub(crate) fn blocked_now(&self) -> Vec<(usize, usize, u32)> {
        self.waits
            .lock()
            .iter()
            .enumerate()
            .filter_map(|(r, w)| w.map(|(s, t)| (r, s, t)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_and_env_default() {
        assert_eq!(Backend::Thread.name(), "thread");
        assert_eq!(Backend::Event.name(), "event");
        assert_eq!(Backend::default(), Backend::Thread);
    }

    #[test]
    fn deadlock_report_names_cycle() {
        let states = vec![
            RankState::Blocked { src: 1, tag: 7 },
            RankState::Blocked { src: 0, tag: 7 },
            RankState::Done,
        ];
        let blocked = vec![(0, 1, 7), (1, 0, 7)];
        let report = deadlock_report(&states, &blocked);
        assert!(report.contains("rank 0 <- recv(src=1"), "{report}");
        assert!(report.contains("rank 1 <- recv(src=0"), "{report}");
        assert!(report.contains("wait-for cycle: 0 -> 1 -> 0"), "{report}");
    }

    #[test]
    fn deadlock_report_flags_finished_peer() {
        let states = vec![RankState::Blocked { src: 1, tag: 3 }, RankState::Done];
        let blocked = vec![(0, 1, 3)];
        let report = deadlock_report(&states, &blocked);
        assert!(report.contains("(which already finished)"), "{report}");
        assert!(report.contains("no wait-for cycle"), "{report}");
    }

    #[test]
    fn wait_board_snapshots_blocked_ranks() {
        let board = WaitBoard::new(3);
        board.enter(1, 2, 0xf000_0001);
        board.enter(2, 1, 0xf000_0001);
        let mut snap = board.blocked_now();
        snap.sort();
        assert_eq!(snap, vec![(1, 2, 0xf000_0001), (2, 1, 0xf000_0001)]);
        board.exit(1);
        assert_eq!(board.blocked_now(), vec![(2, 1, 0xf000_0001)]);
    }
}
