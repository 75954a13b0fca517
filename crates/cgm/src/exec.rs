//! The executor: how a run's virtual processors share the host, how a
//! rank blocks on another, and how a run that can no longer finish is
//! found out.
//!
//! Every rank's SPMD closure runs on its own carrier thread. Two operations
//! can physically block on another rank — device waits and I/O stalls are
//! pure virtual-time arithmetic — and both park the rank on its own
//! mailbox:
//!
//! * a point-to-point **receive** waits for the message it matches, one
//!   lock per message and nothing shared between ranks on that path.
//!   Receives match per `(src, tag)` in sender program order.
//! * a **meeting** at a communicator's board, which is how every collective
//!   runs: every member deposits its entry clock and its typed value or
//!   parts, and the last to arrive resolves the collective's whole message
//!   schedule in virtual time — moving the values and running a
//!   reduction's combines, never encoding a byte — and hands each member
//!   its outcome: one park per rank per call instead of one per message.
//!   Each rank then replays its own sends and receives through the same
//!   accounting a message gets (see [`crate::collectives`]). A
//!   communicator is its ascending list of physical ranks, so disjoint
//!   subgroups meet on different boards, and a board is dropped once full,
//!   so the next call starts a fresh one. Members that bring different
//!   calls — another collective, or another root — are refused.
//!
//! Every virtual-time quantity is a pure function of the matched messages
//! and the deposits, so how the host schedules the carriers cannot leak
//! into any observable.
//!
//! # Liveness
//!
//! One counter, `active`, holds the number of ranks that are neither
//! finished nor parked — on a receive with no match queued, or at a board
//! with no outcome delivered. A rank gives up its count when it parks or
//! finishes, *after* publishing its wait (or that it is done) under its
//! mailbox lock; a parked rank is handed its count back **by the rank that
//! ends its wait — the sender whose push is the match, or the last member
//! to reach the board — on that rank's thread, before the parked rank's
//! mailbox lock is released**. That rank is counted while it pushes or
//! delivers (it is running), and hands over the count before it can reach
//! its own next park or finish, so the counter never drops to 0 while any
//! rank is running or about to wake; and when it *is* 0 every rank is
//! finished or parked with nothing on its way — no message can be sent and
//! no board can fill any more. That state is a deadlock, detected the
//! moment it forms by the rank whose decrement reached 0, with no timer
//! anywhere: it reports the blocked ranks with what each waits on (the
//! `(src, tag)` of a receive and what sits unmatched in its mailbox, or the
//! collective of a board and the members that never arrived) and names the
//! wait-for cycle.
//!
//! # Abort
//!
//! A deadlock report or a rank's panic aborts the run: the reason is
//! stored once (the first wins) and every mailbox's owner is woken. A rank
//! checks for it before every park and after every wake and unwinds with
//! a sentinel payload, which the driver uses to tell the root cause from
//! the bystanders.

use std::collections::HashMap;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::collectives::{Deposit, Meet, Outcome};
use crate::mailbox::{Inbox, Mailbox, Message};

/// Sentinel prefix on panic payloads raised by ranks that were *aborted*
/// (woken from a park because another rank panicked or a structural
/// deadlock was detected) rather than failing themselves. The driver uses
/// it to surface the root cause instead of a bystander's unwind.
pub(crate) const ABORT_SENTINEL: &str = "cgm-exec-abort: ";

/// The blocked ranks a deadlock report lists one by one (a p = 1024 cycle
/// would otherwise be a 1 024-line panic); the cycle is always whole.
const REPORTED_RANKS: usize = 16;
/// The unmatched messages (or absent board members) listed per blocked
/// rank.
const REPORTED_PENDING: usize = 8;

/// What a parked rank waits for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Wait {
    /// The earliest message from `src` with `tag`.
    Recv(usize, u32),
    /// Its outcome from the board of the communicator with these physical
    /// ranks.
    Board(Arc<[usize]>),
}

/// One communicator's rendezvous for the collective call in progress.
struct Board {
    meet: Meet,
    /// Per local rank, what it brought; `None` until it arrives.
    deposits: Vec<Option<Deposit>>,
    arrived: usize,
}

/// Per-run execution state: the mailboxes, the boards, and what decides
/// whether the run can still make progress. See the [module docs](self).
pub(crate) struct Exec {
    mailboxes: Vec<Mailbox>,
    /// Boards that hold at least one deposit, by communicator.
    boards: Mutex<HashMap<Arc<[usize]>, Board>>,
    /// The world communicator, `0..p`.
    world: Arc<[usize]>,
    /// Ranks that are neither finished nor parked; why 0 means deadlock and
    /// nothing less is "Liveness" in the module docs.
    active: AtomicUsize,
    /// Why the run was aborted; set at most once.
    abort: OnceLock<String>,
}

/// What one blocked rank waits on when the run went quiescent.
#[derive(Debug)]
enum Blocked {
    Recv {
        src: usize,
        tag: u32,
    },
    /// Physical ranks of the board's members that never deposited.
    Board {
        meet: Meet,
        size: usize,
        missing: Vec<usize>,
    },
}

/// What one mailbox held when the run went quiescent.
struct Quiesced {
    blocked: Option<Blocked>,
    done: bool,
    pending: Vec<(usize, u32)>,
}

impl Exec {
    /// Execution state of a run of `nprocs` ranks, every one of them
    /// counted active before its carrier thread exists.
    pub(crate) fn new(nprocs: usize) -> Exec {
        Exec {
            mailboxes: (0..nprocs).map(|_| Mailbox::default()).collect(),
            boards: Mutex::new(HashMap::new()),
            world: (0..nprocs).collect(),
            active: AtomicUsize::new(nprocs),
            abort: OnceLock::new(),
        }
    }

    /// The world communicator's physical ranks, `0..p`.
    pub(crate) fn world(&self) -> Arc<[usize]> {
        Arc::clone(&self.world)
    }

    /// Deliver `msg` into rank `dst`'s mailbox; if it is what `dst` is
    /// parked on, hand `dst` its count back and wake it. Every delivery —
    /// payload, delayed payload, poison tombstone — goes through here.
    pub(crate) fn push(&self, dst: usize, msg: Message) {
        let mailbox = &self.mailboxes[dst];
        let mut inbox = mailbox.inbox.lock();
        let (src, tag) = (msg.src, msg.tag);
        inbox.enqueue(msg);
        if inbox.waiting == Some(Wait::Recv(src, tag)) {
            self.wake(mailbox, &mut inbox);
        }
    }

    /// Take the earliest message matching `(src, tag)` from `rank`'s own
    /// mailbox, parking until a push delivers it. Unwinds with the abort
    /// sentinel if the run is aborted before the match arrives — including
    /// when this very park completes a deadlock.
    pub(crate) fn recv(&self, rank: usize, src: usize, tag: u32) -> Message {
        self.park(rank, Wait::Recv(src, tag), |inbox| inbox.take(src, tag))
    }

    /// Deposit local rank `local` of the communicator `members` on that
    /// communicator's board and return its outcome.
    /// The member whose deposit fills the board runs `resolve` on every
    /// deposit, in local-rank order, and delivers each other member its
    /// outcome; the others park until theirs arrives. Panics when members
    /// meet for different collectives or roots (an SPMD violation).
    pub(crate) fn meet(
        &self,
        members: &Arc<[usize]>,
        local: usize,
        deposit: Deposit,
        resolve: impl FnOnce(Vec<Deposit>) -> Vec<Outcome>,
    ) -> Outcome {
        let rank = members[local];
        let full = {
            let mut boards = self.boards.lock();
            let board = boards.entry(Arc::clone(members)).or_insert_with(|| Board {
                meet: deposit.meet,
                deposits: (0..members.len()).map(|_| None).collect(),
                arrived: 0,
            });
            assert!(
                board.meet == deposit.meet,
                "cgm: rank {rank} entered {} while its communicator's other members are in {}",
                deposit.meet,
                board.meet
            );
            debug_assert!(
                board.deposits[local].is_none(),
                "rank {rank} deposited twice"
            );
            board.deposits[local] = Some(deposit);
            board.arrived += 1;
            (board.arrived == members.len()).then(|| boards.remove(&members[..]).expect("board"))
        };
        let Some(board) = full else {
            return self.park(rank, Wait::Board(Arc::clone(members)), |inbox| {
                inbox.outcome.take()
            });
        };
        let deposits = board
            .deposits
            .into_iter()
            .map(|d| d.expect("full board"))
            .collect();
        let mut mine = None;
        for (j, outcome) in resolve(deposits).into_iter().enumerate() {
            if j == local {
                mine = Some(outcome);
                continue;
            }
            let mailbox = &self.mailboxes[members[j]];
            let mut inbox = mailbox.inbox.lock();
            debug_assert!(inbox.outcome.is_none(), "an outcome was never taken");
            inbox.outcome = Some(outcome);
            if matches!(inbox.waiting, Some(Wait::Board(_))) {
                self.wake(mailbox, &mut inbox);
            }
        }
        mine.expect("an outcome per member")
    }

    /// Park `rank` until the run is aborted, keeping its count: its
    /// collective's schedule waits on a peer that failed, and that peer's
    /// panic, which is on its way, aborts the run (a panicked rank keeps
    /// its count too, so this is never mistaken for a deadlock).
    pub(crate) fn await_abort(&self, rank: usize) -> ! {
        let mailbox = &self.mailboxes[rank];
        let mut inbox = mailbox.inbox.lock();
        loop {
            self.check_abort();
            mailbox.cond.wait(&mut inbox);
        }
    }

    /// The rank's body returned. A peer still parked when the last count
    /// goes waits on a rank that already finished.
    pub(crate) fn finish(&self, rank: usize) {
        self.mailboxes[rank].inbox.lock().done = true;
        if self.active.fetch_sub(1, SeqCst) == 1 {
            self.quiescent();
        }
    }

    /// Tear the run down: store `reason` (the first one wins) and wake
    /// every parked rank so it unwinds instead of waiting for a message
    /// that will never come. A rank that panicked keeps its count, so no
    /// deadlock is ever reported on top of a panic.
    pub(crate) fn abort(&self, reason: String) {
        if self.abort.set(reason).is_err() {
            return;
        }
        for mailbox in &self.mailboxes {
            // Notify with the lock held. A rank about to park holds it from
            // its abort check to its wait, so this either precedes the
            // check (the rank sees the reason) or follows the wait (the
            // rank is woken); without the lock the wake could fall between
            // the two and that rank would sleep forever.
            let _inbox = mailbox.inbox.lock();
            mailbox.cond.notify_one();
        }
    }

    /// What `rank` is parked on, if it is.
    #[cfg(test)]
    pub(crate) fn waiting(&self, rank: usize) -> Option<Wait> {
        self.mailboxes[rank].inbox.lock().waiting.clone()
    }

    /// Return what `take` finds in `rank`'s own mailbox, parking on `wait`
    /// until a push or a board delivers it.
    fn park<T>(&self, rank: usize, wait: Wait, mut take: impl FnMut(&mut Inbox) -> Option<T>) -> T {
        let mailbox = &self.mailboxes[rank];
        let mut inbox = mailbox.inbox.lock();
        // At most two turns: the delivery that ends the wait queued it.
        loop {
            if let Some(found) = take(&mut inbox) {
                return found;
            }
            self.check_abort();
            inbox.waiting = Some(wait.clone());
            if self.active.fetch_sub(1, SeqCst) == 1 {
                // Nobody is left to deliver. The snapshot locks every
                // mailbox, this one included.
                drop(inbox);
                self.quiescent();
                inbox = mailbox.inbox.lock();
            }
            // Wait until the *deliverer* says so, not until the condvar
            // returns: `std`'s wakes spuriously, and a rank that left with
            // its wait still registered would run uncounted — `active`
            // could reach 0 under a live rank (a false deadlock), and the
            // delivery that does match would count it a second time.
            while inbox.waiting.is_some() {
                self.check_abort();
                mailbox.cond.wait(&mut inbox);
            }
        }
    }

    /// End the wait of the rank that owns `mailbox`: hand it its count
    /// back and wake it, under its lock (`inbox`).
    fn wake(&self, mailbox: &Mailbox, inbox: &mut Inbox) {
        inbox.waiting = None;
        self.active.fetch_add(1, SeqCst);
        mailbox.cond.notify_one();
    }

    /// Unwind the calling rank if the run is aborted — past the panic
    /// hook: the failure is printed once, by the rank that caused it or by
    /// the driver, not once per bystander.
    fn check_abort(&self) {
        if let Some(reason) = self.abort.get() {
            resume_unwind(Box::new(format!("{ABORT_SENTINEL}{reason}")));
        }
    }

    /// `active` reached 0: every rank is finished or parked for good and
    /// nothing changes any more. A normal end if nobody is parked; a
    /// deadlock, reported and aborted, otherwise.
    fn quiescent(&self) {
        let mailboxes: Vec<(Option<Wait>, bool, Vec<(usize, u32)>)> = self
            .mailboxes
            .iter()
            .map(|mailbox| {
                let inbox = mailbox.inbox.lock();
                (inbox.waiting.clone(), inbox.done, inbox.pending())
            })
            .collect();
        if mailboxes.iter().all(|(waiting, _, _)| waiting.is_none()) {
            return;
        }
        let boards = self.boards.lock();
        let snapshot: Vec<Quiesced> = mailboxes
            .into_iter()
            .map(|(waiting, done, pending)| Quiesced {
                blocked: waiting.map(|wait| match wait {
                    Wait::Recv(src, tag) => Blocked::Recv { src, tag },
                    Wait::Board(members) => {
                        // A board someone waits at is not full, so it is
                        // still listed.
                        let board = &boards[&members[..]];
                        Blocked::Board {
                            meet: board.meet,
                            size: members.len(),
                            missing: members
                                .iter()
                                .zip(&board.deposits)
                                .filter(|(_, d)| d.is_none())
                                .map(|(&m, _)| m)
                                .collect(),
                        }
                    }
                }),
                done,
                pending,
            })
            .collect();
        drop(boards);
        self.abort(deadlock_report(&snapshot));
    }
}

/// Render the structural-deadlock diagnostic: the blocked ranks with what
/// each waits on — the `(src, tag)` of a receive, whether that peer already
/// finished and what sits unmatched in the waiter's mailbox; or the
/// collective of a board and the members that never arrived — then the
/// wait-for cycle when one exists.
fn deadlock_report(ranks: &[Quiesced]) -> String {
    use std::fmt::Write;
    let finished = |r: usize| {
        if ranks[r].done {
            " (which already finished)"
        } else {
            ""
        }
    };
    let list = |out: &mut String, items: Vec<String>, total: usize| {
        out.push_str(&items.join(", "));
        if total > REPORTED_PENDING {
            out.push_str(", …");
        }
    };
    let blocked: Vec<(usize, &Blocked)> = ranks
        .iter()
        .enumerate()
        .filter_map(|(r, q)| q.blocked.as_ref().map(|b| (r, b)))
        .collect();
    let mut out = format!(
        "structural deadlock: global quiescence with {} rank(s) blocked and \
         no send in flight:\n",
        blocked.len()
    );
    for &(r, why) in blocked.iter().take(REPORTED_RANKS) {
        match why {
            Blocked::Recv { src, tag } => {
                let _ = write!(
                    out,
                    "  rank {r} <- recv(src={src}, tag={tag:#x}){}",
                    finished(*src)
                );
                let pending = &ranks[r].pending;
                if !pending.is_empty() {
                    let _ = write!(out, "; {} unmatched in its mailbox: ", pending.len());
                    let shown = pending.iter().take(REPORTED_PENDING);
                    let shown = shown
                        .map(|(s, t)| format!("(src={s}, tag={t:#x})"))
                        .collect();
                    list(&mut out, shown, pending.len());
                }
            }
            Blocked::Board {
                meet,
                size,
                missing,
            } => {
                let _ = write!(
                    out,
                    "  rank {r} <- {}({size} ranks); never arrived: ",
                    meet.name()
                );
                let shown = missing.iter().take(REPORTED_PENDING);
                let shown = shown.map(|&m| format!("{m}{}", finished(m))).collect();
                list(&mut out, shown, missing.len());
            }
        }
        out.push('\n');
    }
    if blocked.len() > REPORTED_RANKS {
        let _ = writeln!(out, "  … and {} more", blocked.len() - REPORTED_RANKS);
    }
    // Each blocked rank has one wait-for edge — to the source of its
    // receive, or to the first absent member of its board that is itself
    // blocked (else the first absent one) — so a cycle, if any, is found by
    // walking edges from a blocked rank; `seen` holds the walk that first
    // reached each rank, which keeps the search linear in p.
    let edge = |r: usize| match &ranks[r].blocked {
        Some(Blocked::Recv { src, .. }) => Some(*src),
        Some(Blocked::Board { missing, .. }) => missing
            .iter()
            .find(|&&m| !ranks[m].done)
            .or(missing.first())
            .copied(),
        None => None,
    };
    let mut seen = vec![usize::MAX; ranks.len()];
    let mut cycle: Vec<usize> = Vec::new();
    for &(start, _) in &blocked {
        let mut cur = Some(start);
        while let Some(r) = cur.filter(|&r| seen[r] == usize::MAX) {
            seen[r] = start;
            cur = edge(r);
        }
        // Back on a rank this same walk already passed: it is on a cycle.
        if let Some(entry) = cur.filter(|&r| seen[r] == start) {
            cycle.push(entry);
            let mut next = edge(entry);
            while let Some(r) = next.filter(|&r| r != entry) {
                cycle.push(r);
                next = edge(r);
            }
            break;
        }
    }
    if let Some(&entry) = cycle.first() {
        let mut names: Vec<String> = cycle.iter().map(|r| r.to_string()).collect();
        names.push(entry.to_string());
        let _ = writeln!(out, "  wait-for cycle: {}", names.join(" -> "));
    } else {
        let _ = writeln!(
            out,
            "  no wait-for cycle: some rank waits on a peer that finished \
             (or never sends) — a missing send, not a message-order inversion"
        );
    }
    out.push_str("  (detection is structural — no wall-clock timeout involved)");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::msg;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn blocked_on(src: usize, tag: u32) -> Quiesced {
        Quiesced {
            blocked: Some(Blocked::Recv { src, tag }),
            done: false,
            pending: Vec::new(),
        }
    }

    fn finished() -> Quiesced {
        Quiesced {
            blocked: None,
            done: true,
            pending: Vec::new(),
        }
    }

    #[test]
    fn deadlock_report_names_cycle() {
        let report = deadlock_report(&[blocked_on(1, 7), blocked_on(0, 7), finished()]);
        assert!(report.contains("rank 0 <- recv(src=1"), "{report}");
        assert!(report.contains("rank 1 <- recv(src=0"), "{report}");
        assert!(report.contains("wait-for cycle: 0 -> 1 -> 0"), "{report}");
    }

    #[test]
    fn deadlock_report_flags_finished_peer() {
        let report = deadlock_report(&[blocked_on(1, 3), finished()]);
        assert!(report.contains("(which already finished)"), "{report}");
        assert!(report.contains("no wait-for cycle"), "{report}");
    }

    #[test]
    fn deadlock_report_finds_a_cycle_behind_a_tail_and_lists_the_mailbox() {
        // 0 waits on 1, which is on the cycle 1 -> 2 -> 3 -> 1; rank 0's
        // mailbox holds ten messages nobody asked for.
        let mut tail = blocked_on(1, 5);
        tail.pending = (0..10).map(|i| (2, 0x60 + i)).collect();
        let report = deadlock_report(&[tail, blocked_on(2, 5), blocked_on(3, 5), blocked_on(1, 5)]);
        assert!(
            report.contains("wait-for cycle: 1 -> 2 -> 3 -> 1"),
            "{report}"
        );
        assert!(
            report.contains("10 unmatched in its mailbox: (src=2, tag=0x60), "),
            "{report}"
        );
        assert!(report.contains("(src=2, tag=0x67), …"), "{report}");
        assert!(!report.contains("tag=0x68"), "{report}");
    }

    /// The owner's half of a park, without the wait: what `recv` does
    /// between finding no match and sleeping.
    fn park(exec: &Exec, rank: usize, src: usize, tag: u32) {
        exec.mailboxes[rank].inbox.lock().waiting = Some(Wait::Recv(src, tag));
        exec.active.fetch_sub(1, SeqCst);
    }

    #[test]
    fn only_the_awaited_push_hands_the_count_back() {
        let exec = Exec::new(3);
        park(&exec, 0, 1, 7);
        exec.push(0, msg(2, 7, vec![1])); // right tag, wrong source
        exec.push(0, msg(1, 8, vec![2])); // right source, wrong tag
        assert_eq!(exec.active.load(SeqCst), 2);
        assert_eq!(exec.waiting(0), Some(Wait::Recv(1, 7)));
        exec.push(0, msg(1, 7, vec![3]));
        assert_eq!(exec.active.load(SeqCst), 3);
        assert_eq!(exec.waiting(0), None);
        // A second match finds nobody parked and counts nobody.
        exec.push(0, msg(1, 7, vec![4]));
        assert_eq!(exec.active.load(SeqCst), 3);
        assert_eq!(exec.recv(0, 1, 7).payload, vec![3]);
    }

    #[test]
    fn random_legal_scripts_match_a_reference_queue_and_return_every_count() {
        // One thread plays every rank of a 2–5 rank machine: a running rank
        // sends, receives what the reference says is queued, or parks on a
        // message a running peer has not sent yet; a parked rank does
        // nothing until the push it waits for releases it, then completes
        // its receive. Every payload must be the reference's earliest match
        // and `active` must equal the number of unparked ranks after every
        // step.
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = rng.random_range(2..=5usize);
            let exec = Exec::new(p);
            let mut reference: Vec<Vec<(usize, u32, u64)>> = vec![Vec::new(); p];
            let mut parked: Vec<Option<(usize, u32)>> = vec![None; p];
            let mut serial = 0u64;
            let mut send = |reference: &mut Vec<Vec<(usize, u32, u64)>>, src, dst: usize, tag| {
                serial += 1;
                reference[dst].push((src, tag, serial));
                exec.push(dst, msg(src, tag, serial.to_le_bytes().to_vec()));
            };
            let recv = |reference: &mut Vec<Vec<(usize, u32, u64)>>, r: usize, src, tag| {
                let pos = reference[r]
                    .iter()
                    .position(|&(s, t, _)| (s, t) == (src, tag))
                    .unwrap_or_else(|| panic!("seed {seed}: script is not legal"));
                let (_, _, want) = reference[r].remove(pos);
                let got = exec.recv(r, src, tag);
                assert_eq!(
                    got.payload,
                    want.to_le_bytes(),
                    "seed {seed}: rank {r} <- ({src}, {tag})"
                );
            };
            for step in 0..rng.random_range(40..100u32) {
                let running: Vec<usize> = (0..p).filter(|&r| parked[r].is_none()).collect();
                let actor = running[rng.random_range(0..running.len())];
                let peer = (actor + rng.random_range(1..p)) % p;
                let tag = rng.random_range(0..3u32);
                let queued = reference[actor]
                    .iter()
                    .any(|&(s, t, _)| (s, t) == (peer, tag));
                match rng.random_range(0..3u8) {
                    0 if queued => recv(&mut reference, actor, peer, tag),
                    // Waits point at running ranks only, so they never close
                    // a cycle and somebody is always left to act.
                    1 if !queued && parked[peer].is_none() => {
                        park(&exec, actor, peer, tag);
                        parked[actor] = Some((peer, tag));
                    }
                    _ => {
                        send(&mut reference, actor, peer, tag);
                        if parked[peer] == Some((actor, tag)) {
                            parked[peer] = None;
                            recv(&mut reference, peer, actor, tag);
                        }
                    }
                }
                let unparked = parked.iter().filter(|w| w.is_none()).count();
                assert_eq!(
                    exec.active.load(SeqCst),
                    unparked,
                    "seed {seed} step {step}"
                );
            }
            // Release whoever is still parked, peers that can send first.
            while let Some(r) =
                (0..p).find(|&r| parked[r].is_some_and(|(src, _)| parked[src].is_none()))
            {
                let (src, tag) = parked[r].take().expect("found parked");
                send(&mut reference, src, r, tag);
                recv(&mut reference, r, src, tag);
            }
            assert_eq!(exec.active.load(SeqCst), p, "seed {seed}: a count was lost");
            assert!(exec.abort.get().is_none(), "seed {seed}");
        }
    }
}
