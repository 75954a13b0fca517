//! Mailboxes: the physical transport between virtual processors.
//!
//! Each processor owns one mailbox. A send appends a [`Message`] to the
//! destination's mailbox; a receive removes the *earliest* message matching
//! `(src, tag)` (per-(src, tag) FIFO order, which is what MPI guarantees for
//! matching sends/receives between a pair of processes), parking the owner
//! until one is there. What the owner is parked on lives under the same
//! lock as the queue, so a sender learns in the one critical section it
//! already needs whether its message is the one being waited for. The same
//! lock guards the slot a collective's board delivers the owner's outcome
//! into. The protocol around that — who counts as able to send, what
//! happens when nobody is — is [`crate::exec`].

use parking_lot::{Condvar, Mutex};

use crate::collectives::Outcome;
use crate::exec::Wait;

/// A message in flight between two virtual processors.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending processor's rank.
    pub src: usize,
    /// Message tag (the range from `RESERVED_TAG_BASE` up is the
    /// collectives', whose boards charge their steps without a message).
    pub tag: u32,
    /// Encoded payload.
    pub payload: Vec<u8>,
    /// Virtual time at which the message is fully available at the receiver
    /// (sender's clock after being charged `alpha + beta * len`, plus any
    /// injected in-flight delay).
    pub arrive_time: f64,
    /// Poison marker: the sender suffered a permanent fault and delivered
    /// this tombstone instead of a payload so the receiver does not hang.
    /// See [`crate::fault`].
    pub poisoned: bool,
}

/// One processor's incoming-message queue and the spot its owner parks on.
#[derive(Default)]
pub struct Mailbox {
    pub(crate) inbox: Mutex<Inbox>,
    /// Only the owner ever waits here.
    pub(crate) cond: Condvar,
}

/// What a mailbox's lock protects.
#[derive(Default)]
pub(crate) struct Inbox {
    /// Arrival order.
    queue: Vec<Message>,
    /// What the owner is parked on: set by the owner when it finds nothing
    /// to take, cleared by the sender whose push is the match or by the
    /// member that fills the owner's board.
    pub(crate) waiting: Option<Wait>,
    /// The owner's outcome of the board collective it is in, delivered by
    /// the member that filled the board.
    pub(crate) outcome: Option<Outcome>,
    /// The owner's body returned; it will never receive (or send) again.
    pub(crate) done: bool,
}

impl Inbox {
    /// Append `msg` behind everything already queued.
    pub(crate) fn enqueue(&mut self, msg: Message) {
        self.queue.push(msg);
    }

    /// Remove and return the earliest message from `src` with `tag`, if one
    /// is queued.
    pub(crate) fn take(&mut self, src: usize, tag: u32) -> Option<Message> {
        self.queue
            .iter()
            .position(|m| m.src == src && m.tag == tag)
            .map(|pos| self.queue.remove(pos))
    }

    /// `(src, tag)` of every queued message, in arrival order
    /// (diagnostics).
    pub(crate) fn pending(&self) -> Vec<(usize, u32)> {
        self.queue.iter().map(|m| (m.src, m.tag)).collect()
    }
}

/// A healthy message with `payload`, for this crate's unit tests.
#[cfg(test)]
pub(crate) fn msg(src: usize, tag: u32, payload: Vec<u8>) -> Message {
    Message {
        src,
        tag,
        payload,
        arrive_time: 0.0,
        poisoned: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Exec;

    #[test]
    fn fifo_per_src_tag() {
        let exec = Exec::new(2);
        exec.push(0, msg(1, 7, vec![10]));
        exec.push(0, msg(1, 7, vec![20]));
        assert_eq!(exec.recv(0, 1, 7).payload, vec![10]);
        assert_eq!(exec.recv(0, 1, 7).payload, vec![20]);
    }

    #[test]
    fn matching_skips_other_sources_and_tags() {
        let exec = Exec::new(3);
        exec.push(0, msg(2, 7, vec![1]));
        exec.push(0, msg(1, 8, vec![2]));
        exec.push(0, msg(1, 7, vec![3]));
        assert_eq!(exec.recv(0, 1, 7).payload, vec![3]);
        assert_eq!(exec.recv(0, 1, 8).payload, vec![2]);
        assert_eq!(exec.recv(0, 2, 7).payload, vec![1]);
    }

    #[test]
    fn recv_blocks_until_push() {
        let exec = Exec::new(2);
        std::thread::scope(|scope| {
            let receiver = scope.spawn(|| exec.recv(0, 1, 1));
            // Push only once the receiver is provably parked, so the wake
            // path (not the message-already-there path) is what runs.
            while exec.waiting(0).is_none() {
                std::thread::yield_now();
            }
            exec.push(0, msg(1, 1, vec![42]));
            assert_eq!(receiver.join().expect("receiver").payload, vec![42]);
        });
    }
}
