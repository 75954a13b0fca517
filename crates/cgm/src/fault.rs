//! Deterministic fault injection for the simulated machine.
//!
//! The paper's experiments assume a healthy, homogeneous 16-node SP2. Real
//! shared-nothing clusters drop messages, suffer transiently failing disks
//! and develop stragglers. This module adds a **fully deterministic** fault
//! model so those effects can be studied without giving up the simulator's
//! bit-for-bit reproducible virtual clocks:
//!
//! * [`LinkFaults`] — per-transmission drop and delay probabilities with a
//!   bounded retry protocol charged to the sender's clock.
//! * [`DiskFaults`] — transient read errors (retried at a seek-like penalty)
//!   and degraded-bandwidth windows keyed on the *virtual* clock.
//! * Per-rank straggler skew multipliers and a set of **failed** ranks
//!   (modeled as extreme stragglers so that fault-oblivious programs still
//!   terminate — a failed node is a node too slow to be worth waiting for).
//!
//! Every fault decision is a pure function of ([`FaultPlan::seed`], the
//! identity of the operation: link endpoints + per-link sequence number, or
//! rank + per-disk request number, and the attempt index). OS scheduling
//! cannot influence outcomes, so a given seed always produces the same
//! faults at the same virtual times.
//!
//! **Zero-fault bit-identity:** a plan for which [`FaultPlan::is_inert`]
//! holds (the default) takes none of the fault code paths — virtual times
//! are bit-identical to a build without fault injection at all.
//!
//! ```
//! use pdc_cgm::fault::FaultPlan;
//!
//! let mut plan = FaultPlan::with_seed(7);
//! plan.link.drop_prob = 0.05;
//! plan.skew = vec![1.0, 2.5]; // rank 1 runs 2.5x slower
//! assert!(!plan.is_inert());
//! assert_eq!(plan.skew_of(1), 2.5);
//! assert!(FaultPlan::default().is_inert());
//! ```

/// Message-link fault parameters (apply to every ordered (src, dst) pair).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaults {
    /// Probability that one transmission attempt is dropped in flight.
    pub drop_prob: f64,
    /// Probability that a *successful* transmission is delayed in flight.
    pub delay_prob: f64,
    /// Extra in-flight latency of a delayed transmission, seconds.
    pub delay_seconds: f64,
    /// Virtual seconds the sender waits before declaring an attempt lost
    /// and retransmitting (an ack-timeout).
    pub retry_timeout: f64,
    /// Retransmissions allowed after the first attempt; when all
    /// `1 + max_retries` attempts drop, the send fails permanently.
    pub max_retries: u32,
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults {
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay_seconds: 1e-3,
            retry_timeout: 1e-3,
            max_retries: 3,
        }
    }
}

/// One window of virtual time during which a disk's bandwidth is degraded
/// (e.g. a RAID rebuild or a competing scrub).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedWindow {
    /// Window start, virtual seconds.
    pub start: f64,
    /// Window end (exclusive), virtual seconds.
    pub end: f64,
    /// Multiplier (> 1.0) applied to transfer times inside the window.
    pub slowdown: f64,
}

impl DegradedWindow {
    /// Whether virtual time `t` falls inside this window.
    pub fn contains(&self, t: f64) -> bool {
        self.start <= t && t < self.end
    }
}

/// Local-disk fault parameters (apply to every node disk).
#[derive(Debug, Clone, PartialEq)]
pub struct DiskFaults {
    /// Probability that one read request fails transiently (bad sector
    /// remapped on retry, transport CRC error, …).
    pub read_error_prob: f64,
    /// Virtual seconds charged per failed read attempt (error detection +
    /// re-seek) before the retry.
    pub retry_penalty: f64,
    /// Retries allowed after the first attempt; when all `1 + max_retries`
    /// attempts fail, the read surfaces a [`FaultError::Disk`].
    pub max_retries: u32,
    /// Degraded-bandwidth windows, keyed on the owning processor's virtual
    /// clock at request time.
    pub degraded: Vec<DegradedWindow>,
}

impl Default for DiskFaults {
    fn default() -> Self {
        DiskFaults {
            read_error_prob: 0.0,
            retry_penalty: 10e-3,
            max_retries: 4,
            degraded: Vec::new(),
        }
    }
}

/// The complete, seeded fault plan of one machine.
///
/// Stored in [`crate::MachineConfig::faults`]; the default plan is inert
/// (injects nothing) and leaves virtual times bit-identical to a machine
/// without fault injection.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Root seed of every fault decision.
    pub seed: u64,
    /// Message-link faults.
    pub link: LinkFaults,
    /// Local-disk faults.
    pub disk: DiskFaults,
    /// Per-rank compute/disk slowdown multipliers (straggler model). Ranks
    /// beyond the vector's length get 1.0; an empty vector is no skew.
    pub skew: Vec<f64>,
    /// Ranks considered failed. A failed rank is modeled as an extreme
    /// straggler with multiplier [`FaultPlan::failed_skew`], so programs
    /// that ignore the failure still terminate — just very slowly.
    pub failed: Vec<usize>,
    /// Slowdown multiplier of failed ranks.
    pub failed_skew: f64,
    /// Probability that one locally-solved small task is spoiled (worker
    /// crash detected at completion) and must be re-executed. Consumed by
    /// the divide-and-conquer layer's retry (see [`FaultPlan::task_spoiled`]);
    /// without retry enabled there, spoiled attempts are not modeled.
    pub task_fault_prob: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::with_seed(0)
    }
}

impl FaultPlan {
    /// An inert plan (injects nothing) with the given decision seed.
    pub fn with_seed(seed: u64) -> Self {
        FaultPlan {
            seed,
            link: LinkFaults::default(),
            disk: DiskFaults::default(),
            skew: Vec::new(),
            failed: Vec::new(),
            failed_skew: 64.0,
            task_fault_prob: 0.0,
        }
    }

    /// Whether this plan can never inject anything. Inert plans skip every
    /// fault code path, keeping virtual times bit-identical to a machine
    /// without fault injection.
    pub fn is_inert(&self) -> bool {
        self.link.drop_prob == 0.0
            && self.link.delay_prob == 0.0
            && self.disk.read_error_prob == 0.0
            && self.disk.degraded.is_empty()
            && self.skew.iter().all(|&s| s == 1.0)
            && self.failed.is_empty()
            && self.task_fault_prob == 0.0
    }

    /// Deterministic verdict on whether attempt `attempt` of the
    /// `task_seq`-th small task solved on `rank` is spoiled and must be
    /// re-executed.
    pub fn task_spoiled(&self, rank: usize, task_seq: u64, attempt: u32) -> bool {
        self.decide(
            &[STREAM_TASK_FAULT, rank as u64, task_seq, attempt as u64],
            self.task_fault_prob,
        )
    }

    /// The straggler multiplier of `rank` (1.0 = healthy full speed).
    pub fn skew_of(&self, rank: usize) -> f64 {
        if self.failed.contains(&rank) {
            self.failed_skew
        } else {
            self.skew.get(rank).copied().unwrap_or(1.0)
        }
    }

    /// Whether `rank` is marked failed.
    pub fn is_failed(&self, rank: usize) -> bool {
        self.failed.contains(&rank)
    }

    /// The bandwidth slowdown of a disk request issued at virtual time `t`
    /// (1.0 outside every degraded window).
    pub fn disk_slowdown_at(&self, t: f64) -> f64 {
        self.disk
            .degraded
            .iter()
            .find(|w| w.contains(t))
            .map_or(1.0, |w| w.slowdown)
    }

    /// Deterministic Bernoulli draw: true with probability `prob`, as a
    /// pure function of the seed and the identifying `stream` words.
    pub fn decide(&self, stream: &[u64], prob: f64) -> bool {
        if prob <= 0.0 {
            return false;
        }
        if prob >= 1.0 {
            return true;
        }
        let mut h = mix64(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        for &w in stream {
            h = mix64(h ^ w);
        }
        // 53 uniform bits -> [0, 1).
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < prob
    }

    /// Draw the transit of the `seq`-th message on the link `src → dst`
    /// (physical ranks): each transmission is dropped with
    /// [`LinkFaults::drop_prob`] until one gets through or
    /// `1 + max_retries` have dropped, and the one that gets through is
    /// delayed with [`LinkFaults::delay_prob`].
    pub(crate) fn transit(&self, src: usize, dst: usize, seq: u64) -> Transit {
        let link = &self.link;
        let (src, dst) = (src as u64, dst as u64);
        let mut drops = 0u32;
        while self.decide(
            &[STREAM_LINK_DROP, src, dst, seq, u64::from(drops)],
            link.drop_prob,
        ) {
            drops += 1;
            if drops > link.max_retries {
                return Transit { drops, failed: true, delayed: false };
            }
        }
        let delayed = self.decide(
            &[STREAM_LINK_DELAY, src, dst, seq, u64::from(drops)],
            link.delay_prob,
        );
        Transit { drops, failed: false, delayed }
    }
}

/// What the link did to one message ([`FaultPlan::transit`]): `drops`
/// transmissions lost in flight, then either a permanent failure (every
/// transmission dropped) or a delivery, `delayed` or on time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Transit {
    /// Transmissions lost in flight; each costs the sender the message
    /// plus [`LinkFaults::retry_timeout`].
    pub(crate) drops: u32,
    /// Every transmission dropped: the send fails.
    pub(crate) failed: bool,
    /// The delivered transmission arrives [`LinkFaults::delay_seconds`]
    /// late.
    pub(crate) delayed: bool,
}

impl Transit {
    /// A message on a healthy link: sent once, on time.
    pub(crate) const CLEAN: Transit = Transit { drops: 0, failed: false, delayed: false };

    /// The sender's clock after a send that started at `clock` and whose
    /// every transmission costs `cost`, and the message's arrival time
    /// (that same clock when the send failed: a poison tombstone takes
    /// the message's place). The one place a send's virtual time is
    /// computed.
    pub(crate) fn times(&self, mut clock: f64, cost: f64, link: &LinkFaults) -> (f64, f64) {
        for _ in 0..self.drops {
            clock += cost + link.retry_timeout;
        }
        if self.failed {
            return (clock, clock);
        }
        clock += cost;
        let arrive = if self.delayed { clock + link.delay_seconds } else { clock };
        (clock, arrive)
    }
}

/// Decision-stream domain tags (first word of every `decide` stream), so
/// link, delay and disk draws never alias.
pub(crate) const STREAM_LINK_DROP: u64 = 1;
pub(crate) const STREAM_LINK_DELAY: u64 = 2;
pub(crate) const STREAM_DISK_READ: u64 = 3;
const STREAM_TASK_FAULT: u64 = 4;

/// SplitMix64 finalizer: a well-mixed 64-bit hash of `z`.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A surfaced fault: what failed permanently after bounded retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// All transmission attempts from `src` to `dst` were dropped.
    Link {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
    },
    /// A message arrived poisoned: the sender (or an upstream collective
    /// participant) suffered a permanent fault and propagated it.
    Poisoned {
        /// Rank the poisoned message came from.
        src: usize,
    },
    /// All read attempts on `rank`'s local disk failed.
    Disk {
        /// Owning rank.
        rank: usize,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::Link { src, dst } => {
                write!(f, "link failure: all sends from rank {src} to rank {dst} dropped")
            }
            FaultError::Poisoned { src } => {
                write!(f, "poisoned message from rank {src} (upstream fault)")
            }
            FaultError::Disk { rank } => {
                write!(f, "disk failure: all read attempts on rank {rank}'s disk failed")
            }
        }
    }
}

impl std::error::Error for FaultError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        assert!(FaultPlan::default().is_inert());
        assert!(FaultPlan::with_seed(42).is_inert());
    }

    #[test]
    fn any_knob_makes_the_plan_active() {
        let mut p = FaultPlan::default();
        p.link.drop_prob = 0.1;
        assert!(!p.is_inert());
        let mut p = FaultPlan::default();
        p.skew = vec![1.0, 1.0, 2.0];
        assert!(!p.is_inert());
        let mut p = FaultPlan::default();
        p.skew = vec![1.0, 1.0];
        assert!(p.is_inert(), "all-ones skew is inert");
        p.failed.push(1);
        assert!(!p.is_inert());
        let mut p = FaultPlan::default();
        p.disk.degraded.push(DegradedWindow { start: 0.0, end: 1.0, slowdown: 3.0 });
        assert!(!p.is_inert());
    }

    #[test]
    fn decide_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::with_seed(1);
        let b = FaultPlan::with_seed(1);
        let c = FaultPlan::with_seed(2);
        let stream = [STREAM_LINK_DROP, 3, 5, 17, 0];
        assert_eq!(a.decide(&stream, 0.5), b.decide(&stream, 0.5));
        // Different seeds must disagree on at least one of many draws.
        let disagree = (0..64).any(|i| {
            let s = [STREAM_LINK_DROP, 3, 5, i, 0];
            a.decide(&s, 0.5) != c.decide(&s, 0.5)
        });
        assert!(disagree);
    }

    #[test]
    fn decide_matches_probability_roughly() {
        let plan = FaultPlan::with_seed(9);
        for &prob in &[0.1, 0.5, 0.9] {
            let hits = (0..10_000)
                .filter(|&i| plan.decide(&[STREAM_DISK_READ, 0, i, 0], prob))
                .count();
            let freq = hits as f64 / 10_000.0;
            assert!((freq - prob).abs() < 0.03, "prob {prob}: observed {freq}");
        }
        assert!(!plan.decide(&[1, 2, 3], 0.0));
        assert!(plan.decide(&[1, 2, 3], 1.0));
    }

    #[test]
    fn skew_of_prefers_failed_over_vector() {
        let mut p = FaultPlan::default();
        p.skew = vec![1.0, 3.0];
        p.failed = vec![1];
        p.failed_skew = 100.0;
        assert_eq!(p.skew_of(0), 1.0);
        assert_eq!(p.skew_of(1), 100.0);
        assert_eq!(p.skew_of(7), 1.0, "out of range defaults to healthy");
    }

    #[test]
    fn degraded_windows_lookup() {
        let mut p = FaultPlan::default();
        p.disk.degraded = vec![
            DegradedWindow { start: 1.0, end: 2.0, slowdown: 4.0 },
            DegradedWindow { start: 5.0, end: 6.0, slowdown: 2.0 },
        ];
        assert_eq!(p.disk_slowdown_at(0.5), 1.0);
        assert_eq!(p.disk_slowdown_at(1.0), 4.0);
        assert_eq!(p.disk_slowdown_at(1.999), 4.0);
        assert_eq!(p.disk_slowdown_at(2.0), 1.0);
        assert_eq!(p.disk_slowdown_at(5.5), 2.0);
    }
}
