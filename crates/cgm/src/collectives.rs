//! Collective communication primitives, charged as the point-to-point
//! messages of their schedules so that their *measured* simulated cost
//! reproduces the complexities of Table 1 of the paper:
//!
//! | primitive            | hypercube cost                      |
//! |----------------------|-------------------------------------|
//! | all-to-all broadcast | `O(ts·log p + tw·m·(p-1))`          |
//! | gather               | `O(ts·log p + tw·m·p)`              |
//! | global combine       | `O(ts·log p + tw·m)` (per step `m`) |
//! | prefix sum           | `O((ts + tw·m)·log p)`              |
//!
//! All collectives must be called by **every** processor of the
//! communicator in the same program order, with the same `root` where they
//! take one (SPMD discipline, exactly as with MPI). Combine functions must
//! be associative and commutative — combination order is deterministic for
//! a given `p` but is not the rank order.
//!
//! Every collective is *resolved* rather than sent: its members meet on
//! their communicator's board (see [`crate::exec`]), so no member returns
//! before every member has arrived. Each member deposits its entry clock,
//! link sequence numbers and typed value or parts; the last to arrive runs
//! the collective's message schedule in virtual time — the same
//! `message_cost`, link-fault draws and `max(clock, arrival)` rule a message
//! gets, each message sized by [`Wire::encoded_len`] of what it would carry
//! — and moves the values themselves, so nothing is encoded or decoded.
//! Each member then replays its own sends and receives through the
//! accounting of [`Proc::try_send_bytes`] / [`Proc::try_recv_bytes`]: the
//! same clock, counters, [`crate::Ev::Push`] / [`crate::Ev::Recv`] events,
//! mailbox gauges and link sequence numbers, with one park per call instead
//! of one per message. The mailbox carries point-to-point traffic only.
//! Each schedule runs the combines its messages' receivers would, in their
//! order, and each result every member holds alike — a broadcast value, an
//! all-gather's slice, an allreduce's result — is one shared allocation on
//! the host.
//!
//! A schedule has one body. If it has a fallible name (`try_barrier`,
//! `try_broadcast`, `try_reduce`, `try_allreduce`,
//! `try_reduce_scatter_blocks`), that body is the fallible one: after a
//! failed edge a rank sends a poison tombstone on every remaining edge of
//! the schedule instead of its data, so every rank the failure could reach
//! returns `Err`, and none hangs. The plain name is a view of it that
//! panics on `Err`, exactly as [`Proc::send_bytes`] relates to
//! [`Proc::try_send_bytes`]. The other collectives panic at a fault, where
//! the message would.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use crate::fault::{FaultError, Transit};
use crate::proc::{Proc, SharedMachine, RESERVED_TAG_BASE};
use crate::topology::{is_pow2, log2ceil, partner};
use crate::wire::Wire;

// The numeric values are recorded in `.evg` files: a retired tag's number
// is not reused.
const TAG_BARRIER: u32 = RESERVED_TAG_BASE;
const TAG_BCAST: u32 = RESERVED_TAG_BASE + 1;
const TAG_REDUCE: u32 = RESERVED_TAG_BASE + 2;
const TAG_ALLREDUCE: u32 = RESERVED_TAG_BASE + 3;
const TAG_SCAN: u32 = RESERVED_TAG_BASE + 4;
const TAG_GATHER: u32 = RESERVED_TAG_BASE + 5;
const TAG_ALLGATHER: u32 = RESERVED_TAG_BASE + 6;
const TAG_ALLTOALL: u32 = RESERVED_TAG_BASE + 7;
const TAG_REDUCE_SCATTER: u32 = RESERVED_TAG_BASE + 12;

impl Proc {
    /// Encoded payload size for span attribution. Only computed when spans
    /// are enabled (sizing is host-side work; virtual time is untouched
    /// either way); with spans off the attribute is never stored, so the
    /// placeholder 0 is unobservable.
    fn attr_bytes<T: Wire>(&self, value: &T) -> i64 {
        if self.spans_enabled() {
            value.encoded_len() as i64
        } else {
            0
        }
    }

    // ------------------------------------------------------------------
    // Barrier
    // ------------------------------------------------------------------

    /// Synchronize all processors. On return, every clock has advanced to at
    /// least the maximum clock at entry (plus the messaging cost of the
    /// underlying dissemination). Panics if a link fails permanently, after
    /// finishing the poison-propagating schedule of [`Proc::try_barrier`] —
    /// so every rank fails with the fault, none hangs.
    pub fn barrier(&mut self) {
        self.try_barrier().unwrap_or_else(|e| {
            panic!("cgm: rank {} barrier failed: {e}", self.world_rank())
        })
    }

    /// Fallible [`Proc::barrier`]: synchronizes whoever can still
    /// communicate and surfaces an error instead of hanging when a link
    /// fails permanently.
    pub fn try_barrier(&mut self) -> Result<(), FaultError> {
        let t = self.span("cgm.barrier", &[]);
        let out = self.meet(Meet::Barrier, (), |_, units: Vec<()>| units);
        self.span_end(t);
        out
    }

    // ------------------------------------------------------------------
    // Broadcast
    // ------------------------------------------------------------------

    /// One-to-all broadcast (binomial tree, any `p`). The root passes
    /// `Some(value)`; all other ranks pass `None` and receive the value: a
    /// clone of the one the root deposited, shared on the board. The root's
    /// span records the payload size (`bytes`), so large broadcasts — model
    /// deployment, configuration fan-out — are sized in traces and metrics
    /// rollups. Panics if a link fails permanently, after finishing the
    /// poison-propagating schedule of [`Proc::try_broadcast`].
    pub fn broadcast<T>(&mut self, root: usize, value: Option<T>) -> T
    where
        T: Wire + Clone + Send + Sync + 'static,
    {
        self.try_broadcast(root, value).unwrap_or_else(|e| {
            panic!("cgm: rank {} broadcast failed: {e}", self.world_rank())
        })
    }

    /// Fallible [`Proc::broadcast`]. The root still knows the value on
    /// failure but returns `Err` like everyone else, so all ranks agree on
    /// whether the broadcast completed.
    pub fn try_broadcast<T>(&mut self, root: usize, value: Option<T>) -> Result<T, FaultError>
    where
        T: Wire + Clone + Send + Sync + 'static,
    {
        let t = if self.rank() == root {
            let v = value.as_ref().expect("broadcast root must supply a value");
            let bytes = self.attr_bytes(v);
            self.span("cgm.broadcast", &[("root", root as i64), ("bytes", bytes)])
        } else {
            assert!(value.is_none(), "non-root rank passed a broadcast value");
            self.span("cgm.broadcast", &[("root", root as i64)])
        };
        let out = self.meet(Meet::Broadcast(root), value.map(Arc::new), Shared::new);
        self.span_end(t);
        out.map(|v: Option<Arc<T>>| Arc::unwrap_or_clone(v.expect("a healthy member's value")))
    }

    // ------------------------------------------------------------------
    // Reduce / global combine
    // ------------------------------------------------------------------

    /// All-to-one reduction (binomial tree, any `p`). Returns `Some(result)`
    /// on `root`, `None` elsewhere. `combine` must be associative and
    /// commutative. Panics if a link fails permanently, after finishing the
    /// poison-propagating schedule of [`Proc::try_reduce`].
    pub fn reduce<T>(&mut self, root: usize, value: T, combine: impl Fn(T, T) -> T) -> Option<T>
    where
        T: Wire + Send + Sync + 'static,
    {
        self.try_reduce(root, value, combine).unwrap_or_else(|e| {
            panic!("cgm: rank {} reduce failed: {e}", self.world_rank())
        })
    }

    /// Fallible [`Proc::reduce`]. Returns `Ok(Some(result))` on `root`,
    /// `Ok(None)` on other ranks, or `Err` when this rank faulted or
    /// consumed poison (a poisoned partial is forwarded up the tree so the
    /// root learns of the failure).
    pub fn try_reduce<T>(
        &mut self,
        root: usize,
        value: T,
        combine: impl Fn(T, T) -> T,
    ) -> Result<Option<T>, FaultError>
    where
        T: Wire + Send + Sync + 'static,
    {
        let bytes = self.attr_bytes(&value);
        let t = self.span("cgm.reduce", &[("root", root as i64), ("bytes", bytes)]);
        let out = self.meet(Meet::Reduce(root), value, |schedule, values| {
            Combining::new(schedule, values, &combine)
        });
        self.span_end(t);
        out.map(|v: Option<Arc<T>>| v.map(|v| Arc::into_inner(v).expect("the root's own result")))
    }

    /// All-to-all reduction: every rank gets the combined value.
    ///
    /// Uses recursive doubling when `p` is a power of two (cost
    /// `(ts + tw·m)·log p`); otherwise reduce-to-0 followed by broadcast.
    /// Panics if a link fails permanently, after finishing the
    /// poison-propagating schedule of [`Proc::try_allreduce`].
    pub fn allreduce<T>(&mut self, value: T, combine: impl Fn(T, T) -> T) -> T
    where
        T: Wire + Clone + Send + Sync + 'static,
    {
        self.try_allreduce(value, combine).unwrap_or_else(|e| {
            panic!("cgm: rank {} allreduce failed: {e}", self.world_rank())
        })
    }

    /// Fallible [`Proc::allreduce`]: surfaces `Err` instead of hanging when
    /// a link fails permanently. Poison doubles per step of the recursive
    /// doubling, so every rank whose partial the failure could have reached
    /// returns `Err`; or it reaches the root of the reduce–broadcast pair,
    /// which then poisons everyone.
    pub fn try_allreduce<T>(
        &mut self,
        value: T,
        combine: impl Fn(T, T) -> T,
    ) -> Result<T, FaultError>
    where
        T: Wire + Clone + Send + Sync + 'static,
    {
        let bytes = self.attr_bytes(&value);
        let t = self.span("cgm.allreduce", &[("bytes", bytes)]);
        let p = self.nprocs();
        let out = if p == 1 {
            Ok(value)
        } else if is_pow2(p) {
            self.meet(Meet::AllReduce, value, |schedule, values| {
                Combining::new(schedule, values, &combine)
            })
            .map(|v: Option<Arc<T>>| Arc::unwrap_or_clone(v.expect("a healthy rank's result")))
        } else {
            // Reduce to 0 then broadcast; a failure anywhere poisons the
            // root, which then broadcasts nothing and so poisons everyone.
            match self.try_reduce(0, value, combine) {
                Ok(Some(v)) => self.try_broadcast(0, Some(v)),
                Err(e) if self.rank() == 0 => {
                    let nothing: Option<Arc<T>> = None;
                    let _: Result<Option<Arc<T>>, _> =
                        self.meet(Meet::Broadcast(0), nothing, Shared::new);
                    Err(e)
                }
                reduced => {
                    let bc = self.try_broadcast(0, None);
                    reduced.and(bc)
                }
            }
        };
        self.span_end(t);
        out
    }

    /// Global minimum with the rank that achieved it (ties broken by lower
    /// rank). This is the paper's "min-reduction primitive on the local
    /// minimum gini indices".
    pub fn min_loc(&mut self, value: f64) -> (f64, usize) {
        // Total order on the score: NaN compares as +infinity, so a poisoned
        // local minimum can never displace a finite one and an all-NaN input
        // still resolves deterministically (lowest rank wins ties).
        fn key(v: f64) -> f64 {
            if v.is_nan() {
                f64::INFINITY
            } else {
                v
            }
        }
        let pair = (value, self.rank() as u64);
        let t = self.span("cgm.min_loc", &[("bytes", self.attr_bytes(&pair))]);
        let (v, r) = self.allreduce(pair, |a, b| {
            if (key(b.0), b.1) < (key(a.0), a.1) {
                b
            } else {
                a
            }
        });
        self.span_end(t);
        (v, r as usize)
    }

    // ------------------------------------------------------------------
    // Prefix sum (scan)
    // ------------------------------------------------------------------

    /// Inclusive prefix combine (Hillis–Steele, any `p`): rank `i` gets
    /// `v_0 (+) v_1 (+) … (+) v_i`. `combine` must be associative.
    pub fn scan<T>(&mut self, value: T, combine: impl Fn(T, T) -> T) -> T
    where
        T: Wire + Clone + Send + 'static,
    {
        let bytes = self.attr_bytes(&value);
        let t = self.span("cgm.scan", &[("bytes", bytes)]);
        let out = self.meet(Meet::Scan, value, |_, values: Vec<T>| Prefix {
            combine: &combine,
            partials: values.into_iter().map(Some).collect(),
        });
        self.span_end(t);
        out.expect("an infallible schedule panics at its fault")
    }

    /// Exclusive prefix combine: rank `i` gets `v_0 (+) … (+) v_{i-1}`, and
    /// rank 0 gets `identity`. An inclusive scan, then a shift by one rank.
    pub fn exscan<T>(&mut self, value: T, identity: T, combine: impl Fn(T, T) -> T) -> T
    where
        T: Wire + Clone + Send + 'static,
    {
        let bytes = self.attr_bytes(&value);
        let t = self.span("cgm.exscan", &[("bytes", bytes)]);
        let inclusive = self.scan(value, combine);
        // The last rank's inclusive value goes nowhere.
        let parts = (self.rank() + 1 < self.nprocs()).then_some(inclusive);
        let out: Result<Vec<T>, _> =
            self.meet(Meet::Exscan, Some(Vec::from_iter(parts)), Relay::new);
        self.span_end(t);
        out.expect("an infallible schedule panics at its fault").pop().unwrap_or(identity)
    }

    // ------------------------------------------------------------------
    // Gather / all-gather
    // ------------------------------------------------------------------

    /// All-to-one gather (binomial tree). Returns `Some(values)` on `root`
    /// (indexed by rank), `None` elsewhere.
    pub fn gather<T>(&mut self, root: usize, value: T) -> Option<Vec<T>>
    where
        T: Wire + Send + Sync + 'static,
    {
        let bytes = self.attr_bytes(&value);
        let t = self.span("cgm.gather", &[("root", root as i64), ("bytes", bytes)]);
        let out = self.meet(Meet::Gather(root), value, Gather::new);
        self.span_end(t);
        out.expect("an infallible schedule panics at its fault")
    }

    /// All-to-all broadcast (all-gather): every rank gets every rank's value,
    /// indexed by rank. Recursive doubling on power-of-two `p`
    /// (`ts·log p + tw·m·(p-1)`), ring otherwise.
    ///
    /// Every member holds the same values, so the host keeps one copy: each
    /// member is handed the same shared slice, and reads it in place.
    pub fn all_gather<T>(&mut self, value: T) -> Arc<[T]>
    where
        T: Wire + Send + Sync + 'static,
    {
        let bytes = self.attr_bytes(&value);
        let t = self.span("cgm.all_gather", &[("bytes", bytes)]);
        let out = if self.nprocs() == 1 {
            Arc::from([value])
        } else {
            let out = self.meet(Meet::AllGather, value, Gather::new);
            out.expect("an infallible schedule panics at its fault")
        };
        self.span_end(t);
        out
    }

    // ------------------------------------------------------------------
    // Large-message collective: reduce-scatter
    // ------------------------------------------------------------------
    //
    // The binomial schedules above move the *whole* payload `log p` times,
    // which is right for latency-bound messages but wasteful for the large
    // multi-attribute histograms of the stats phase. Reduce-scatter
    // operates on a splittable payload: on a power-of-two machine recursive
    // halving moves only `m·(p-1)/p` bytes, and it undercuts the fan-in at
    // every payload size `m` (by at least `(p-1)·α + β·(p-1)·⌊m/p⌋`), so the
    // schedule is a function of `p` alone. Whichever schedule runs, the
    // *values* produced are identical for exactly associative and
    // commutative combines — only virtual time differs.

    /// Reduce-scatter over per-destination blocks: every rank contributes
    /// `blocks[j]` toward rank `j` (one block per rank, element counts
    /// aligned across ranks per destination) and receives its own block
    /// combined over all ranks. `combine` must be associative and
    /// commutative.
    ///
    /// Power-of-two `p > 1`: recursive halving (the payload halves every
    /// round, so only `m·(p-1)/p` bytes cross the network). Otherwise:
    /// binomial fan-in of the whole payload to rank 0 followed by a scatter.
    /// The span carries no `bytes` attribute — its counter delta records
    /// the bytes this rank sent.
    ///
    /// Panics if a link fails permanently, after finishing the
    /// poison-propagating schedule of [`Proc::try_reduce_scatter_blocks`].
    pub fn reduce_scatter_blocks<T: Wire + Send + Sync + 'static>(
        &mut self,
        blocks: Vec<Vec<T>>,
        combine: impl Fn(T, T) -> T,
    ) -> Vec<T> {
        self.try_reduce_scatter_blocks(blocks, combine)
            .unwrap_or_else(|e| {
                panic!("cgm: rank {} reduce_scatter_blocks failed: {e}", self.world_rank())
            })
    }

    /// Fallible [`Proc::reduce_scatter_blocks`]: a permanent link failure
    /// surfaces as `Err` on every rank (poison propagates along every
    /// remaining edge) instead of hanging.
    pub fn try_reduce_scatter_blocks<T: Wire + Send + Sync + 'static>(
        &mut self,
        blocks: Vec<Vec<T>>,
        combine: impl Fn(T, T) -> T,
    ) -> Result<Vec<T>, FaultError> {
        let p = self.nprocs();
        let halving = is_pow2(p) && p > 1;
        let name = if halving { "cgm.reduce_scatter.halving" } else { "cgm.reduce_scatter.fanin" };
        let t = self.span(name, &[]);
        assert_eq!(blocks.len(), p, "reduce_scatter needs exactly one block per rank");
        let out = if halving {
            self.meet(Meet::ReduceScatter, blocks, |_, entries| Halving {
                combine: &combine,
                entries,
            })
        } else {
            self.try_fanin_scatter(blocks, combine)
        };
        self.span_end(t);
        out
    }

    /// [`Proc::try_reduce_scatter_blocks`] on a `p` that is not a power of
    /// two: a reduce of the whole payloads to rank 0, which keeps its own
    /// block and scatters the others. A failed reduce leaves rank 0 nothing
    /// to scatter, so it poisons everyone.
    fn try_fanin_scatter<T: Wire + Send + Sync + 'static>(
        &mut self,
        blocks: Vec<Vec<T>>,
        combine: impl Fn(T, T) -> T,
    ) -> Result<Vec<T>, FaultError> {
        let merge = |a: Vec<Vec<T>>, b: Vec<Vec<T>>| -> Vec<Vec<T>> {
            a.into_iter().zip(b).map(|(x, y)| combine_block(x, y, &combine)).collect()
        };
        // The reduce of `try_reduce`, without its span.
        let merged: Result<Option<Arc<Vec<Vec<T>>>>, _> =
            self.meet(Meet::Reduce(0), blocks, |s, values| Combining::new(s, values, &merge));
        let (fault, own, parts) = match merged {
            Ok(Some(merged)) => {
                let mut merged = Arc::into_inner(merged).expect("the root's own result");
                let rest = merged.split_off(1);
                (None, merged.pop(), Some(rest))
            }
            Ok(None) => (None, None, Some(Vec::new())),
            Err(e) => (Some(e), None, None),
        };
        let scattered: Result<Vec<Vec<T>>, _> = self.meet(Meet::ReduceScatter, parts, Relay::new);
        if let Some(e) = fault {
            return Err(e);
        }
        let mut received = scattered?;
        Ok(own.or_else(|| received.pop()).expect("rank 0 sends every rank its block"))
    }

    /// Personalized all-to-all: `parts[j]` is delivered to rank `j`; the
    /// result's element `i` is what rank `i` addressed to this rank.
    /// `parts[self.rank()]` is returned in place without transfer cost.
    pub fn all_to_all<T: Wire + Send + 'static>(&mut self, parts: Vec<T>) -> Vec<T> {
        let (me, p) = (self.rank(), self.nprocs());
        assert_eq!(parts.len(), p, "all_to_all needs exactly one part per rank");
        let bytes = self.attr_bytes(&parts);
        let t = self.span("cgm.all_to_all", &[("bytes", bytes)]);
        if p == 1 {
            self.span_end(t);
            return parts;
        }
        // The own part stays here.
        let mut parts: Vec<Option<T>> = parts.into_iter().map(Some).collect();
        let own = parts[me].take();
        let column: Result<Vec<Option<T>>, _> =
            self.meet(Meet::AllToAll, parts, |_, parts| Exchange { parts });
        self.span_end(t);
        let mut column = column.expect("an infallible schedule panics at its fault");
        column[me] = own;
        column.into_iter().map(|part| part.expect("a part from every member")).collect()
    }

    /// Meet the communicator's other members on its board (see
    /// [`crate::exec`]) with this rank's typed `value` (see each
    /// [`Values`] implementation for what it is), then replay this rank's
    /// side of the schedule the board resolved: each step's send — data or
    /// poison — and receive, where it has them, through the accounting a
    /// message gets. The member that fills the board builds the [`Values`]
    /// from the schedule and every member's `value`, in local-rank order,
    /// with `values`. Returns what the board handed this rank, or the first
    /// fault of a fallible schedule; an infallible one panics at its fault.
    fn meet<D: Send + 'static, V: Values, R: 'static>(
        &mut self,
        meet: Meet,
        value: D,
        values: impl FnOnce(Schedule, Vec<D>) -> V,
    ) -> Result<R, FaultError> {
        let (members, local) = self.communicator();
        let schedule = Schedule::of(meet, members.len());
        let deposit = Deposit {
            meet,
            clock: self.clock(),
            link_seq: self.link_seqs(&members),
            value: Box::new(value),
        };
        let shared = self.shared();
        let outcome = shared.exec.meet(&members, local, deposit, |deposits| {
            resolve(&shared, &members, schedule, deposits, values)
        });
        let fallible = meet.fallible();
        let mut fault: Option<FaultError> = None;
        for (k, hop) in outcome.hops.iter().enumerate() {
            let (to, from) = schedule.peers(local, k);
            let tag = schedule.tag(k);
            match (to, hop.sent) {
                (None, _) => {}
                (Some(to), Some(len)) => {
                    if let (_, Err(e)) = self.charge_send(members[to], tag, len) {
                        if !fallible {
                            self.send_failed(to, tag, e);
                        }
                        fault.get_or_insert(e);
                    }
                }
                (Some(to), None) => self.charge_poison(members[to], tag),
            }
            let Some(from) = from else { continue };
            let Some(Arrival { at, poisoned, len }) = hop.arrival else {
                shared.exec.await_abort(self.world_rank())
            };
            if let Err(e) = self.charge_recv(members[from], tag, at, poisoned, len) {
                if !fallible {
                    self.recv_failed(from, tag, e);
                }
                fault.get_or_insert(e);
            }
        }
        debug_assert_eq!(
            self.clock().to_bits(),
            outcome.finish.to_bits(),
            "rank {}: the replay left the clock the board resolved",
            self.world_rank()
        );
        match fault {
            Some(e) => Err(e),
            None => Ok(*outcome.value.downcast().expect("the collective's result")),
        }
    }
}

/// Merge two ranks' blocks for one destination element-wise, `a`'s
/// elements first.
fn combine_block<T>(a: Vec<T>, b: Vec<T>, combine: &impl Fn(T, T) -> T) -> Vec<T> {
    assert_eq!(a.len(), b.len(), "reduce_scatter blocks must align across ranks");
    a.into_iter().zip(b).map(|(x, y)| combine(x, y)).collect()
}

/// A typed value or set of parts on its way across a board.
type Payload = Box<dyn Any + Send>;

/// A collective call that meets on its communicator's board (see
/// [`crate::exec`]). Members whose calls differ — a different collective,
/// or the same one from a different root — refuse to meet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Meet {
    /// [`Proc::barrier`].
    Barrier,
    /// [`Proc::broadcast`] from this root.
    Broadcast(usize),
    /// [`Proc::reduce`] to this root (also the first half of a
    /// non-power-of-two `allreduce` or `reduce_scatter_blocks`).
    Reduce(usize),
    /// [`Proc::gather`] to this root.
    Gather(usize),
    /// [`Proc::scan`].
    Scan,
    /// [`Proc::exscan`]'s shift by one rank.
    Exscan,
    /// [`Proc::all_to_all`].
    AllToAll,
    /// [`Proc::all_gather`].
    AllGather,
    /// [`Proc::allreduce`], `p` a power of two.
    AllReduce,
    /// [`Proc::reduce_scatter_blocks`]: the halving, or the scatter after
    /// the reduce.
    ReduceScatter,
}

impl Meet {
    /// How deadlock reports name the collective.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Meet::Barrier => "barrier",
            Meet::Broadcast(_) => "broadcast",
            Meet::Reduce(_) => "reduce",
            Meet::Gather(_) => "gather",
            Meet::Scan => "scan",
            Meet::Exscan => "exscan",
            Meet::AllToAll => "all_to_all",
            Meet::AllGather => "all_gather",
            Meet::AllReduce => "allreduce",
            Meet::ReduceScatter => "reduce_scatter_blocks",
        }
    }

    /// The root of a rooted collective; 0 otherwise.
    fn root(self) -> usize {
        match self {
            Meet::Broadcast(root) | Meet::Reduce(root) | Meet::Gather(root) => root,
            _ => 0,
        }
    }

    /// The tag of the schedule's first step.
    fn tag(self) -> u32 {
        match self {
            Meet::Barrier => TAG_BARRIER,
            Meet::Broadcast(_) => TAG_BCAST,
            Meet::Reduce(_) => TAG_REDUCE,
            Meet::Gather(_) => TAG_GATHER,
            Meet::Scan | Meet::Exscan => TAG_SCAN,
            Meet::AllToAll => TAG_ALLTOALL,
            Meet::AllGather => TAG_ALLGATHER,
            Meet::AllReduce => TAG_ALLREDUCE,
            Meet::ReduceScatter => TAG_REDUCE_SCATTER,
        }
    }

    /// Whether a rank goes on after a fault, sending poison on every
    /// remaining edge, and returns `Err` at the end (the collectives with
    /// a fallible name). In an infallible schedule it panics at the fault.
    fn fallible(self) -> bool {
        matches!(
            self,
            Meet::Barrier
                | Meet::Broadcast(_)
                | Meet::Reduce(_)
                | Meet::AllReduce
                | Meet::ReduceScatter
        )
    }
}

impl fmt::Display for Meet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Meet::Broadcast(root) | Meet::Reduce(root) | Meet::Gather(root) => {
                write!(f, "{}(root {root})", self.name())
            }
            _ => f.write_str(self.name()),
        }
    }
}

/// What one member brings to a board.
pub(crate) struct Deposit {
    pub(crate) meet: Meet,
    /// The member's clock on entry.
    clock: f64,
    /// Its next link sequence number toward each member, when sends draw
    /// link faults (empty otherwise).
    link_seq: Vec<u64>,
    /// Its typed value or parts (see [`Values`]).
    value: Payload,
}

/// What a board hands one member back.
pub(crate) struct Outcome {
    /// The member's steps of the schedule, as far as it gets: all of them
    /// in a fallible schedule; in an infallible one, up to the one whose
    /// send fails, whose receive is poisoned, or whose sender stopped
    /// before it.
    hops: Vec<Hop>,
    /// The member's clock after its last step, for the replay to check.
    finish: f64,
    /// What the collective hands this member (see [`Values`]).
    value: Payload,
}

/// One step of a member's schedule: it sends, then receives, where the
/// schedule gives it a peer to.
struct Hop {
    /// The length of the data message sent, or `None` for a poison
    /// tombstone (a fallible schedule's rank after its fault); unread in a
    /// step where the member sends nothing.
    sent: Option<usize>,
    /// `None` when the sender stopped before this step (its send failed or
    /// it was itself stopped): the member waits for the run's abort.
    arrival: Option<Arrival>,
}

/// The message a member receives in one step.
#[derive(Clone, Copy)]
struct Arrival {
    at: f64,
    poisoned: bool,
    len: usize,
}

/// The message schedule of a board collective over `p` ranks.
#[derive(Clone, Copy)]
struct Schedule {
    meet: Meet,
    shape: Shape,
    p: usize,
}

/// Who sends to whom in each step of a [`Schedule`]. Ranks are local ranks
/// of the communicator; a rooted schedule is written for root 0 and runs
/// over ranks relative to its root.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// `all_to_all`, `p` a power of two: in step `k` rank `r` exchanges
    /// with `r ^ (k + 1)` (perfectly matched pairs).
    Xor,
    /// `all_to_all`, any other `p`: sends to `r + k + 1`, receives from
    /// `r - k - 1` (mod `p`).
    Shift,
    /// `all_gather` and `allreduce`, `p` a power of two: recursive doubling
    /// — in step `k` rank `r` exchanges what it holds with `r ^ 2^k`.
    /// Doubling whenever it applies: for `all_gather` both schedules share
    /// the `tw·m·(p-1)` bandwidth term and the ring pays `p - 1` startups
    /// against doubling's `log p`, so no payload size favors the ring.
    Doubling,
    /// `all_gather`, any other `p`: `p - 1` steps around the ring, each
    /// forwarding the value received in the step before.
    Ring,
    /// `reduce_scatter_blocks`, `p` a power of two: recursive halving — in
    /// step `k` rank `r` sends the half of its blocks bound for
    /// `r ^ (p >> (k + 1))`'s side to that rank and combines the other half
    /// with what it receives.
    Halving,
    /// `reduce_scatter_blocks`, any other `p`, after its reduce: in step `k`
    /// rank 0 sends rank `k + 1` its block.
    Scatter,
    /// `barrier`: dissemination — in step `k` rank `r` sends to `r + 2^k`
    /// and receives from `r - 2^k` (mod `p`).
    Dissemination,
    /// `broadcast`: binomial tree down from the root — in step `k`, with
    /// `m = 2^(⌈log p⌉ - 1 - k)`, each relative rank that is a multiple of
    /// `2m` holds the value and sends it `m` ranks up.
    Down,
    /// `reduce`, `gather`: binomial tree up to the root — in step `k` each
    /// relative rank whose lowest set bit is `2^k` sends what it holds
    /// `2^k` ranks down, and is done.
    Up,
    /// `scan`: Hillis–Steele — in step `k` rank `r` sends to `r + 2^k` and
    /// receives from `r - 2^k`, where those exist.
    Prefix,
    /// `exscan`'s shift: in one step rank `r` sends to `r + 1` and receives
    /// from `r - 1`, where those exist.
    Successor,
}

impl Schedule {
    fn of(meet: Meet, p: usize) -> Schedule {
        assert!(meet.root() < p, "cgm: {meet} on a communicator of {p} ranks");
        let pow2 = is_pow2(p);
        let shape = match meet {
            Meet::Barrier => Shape::Dissemination,
            Meet::Broadcast(_) => Shape::Down,
            Meet::Reduce(_) | Meet::Gather(_) => Shape::Up,
            Meet::Scan => Shape::Prefix,
            Meet::Exscan => Shape::Successor,
            Meet::AllToAll if pow2 => Shape::Xor,
            Meet::AllToAll => Shape::Shift,
            Meet::AllGather if pow2 => Shape::Doubling,
            Meet::AllGather => Shape::Ring,
            Meet::AllReduce => {
                assert!(pow2, "allreduce meets only on a power of two");
                Shape::Doubling
            }
            Meet::ReduceScatter if pow2 => Shape::Halving,
            Meet::ReduceScatter => Shape::Scatter,
        };
        Schedule { meet, shape, p }
    }

    fn steps(self) -> usize {
        match self.shape {
            Shape::Xor | Shape::Shift | Shape::Ring | Shape::Scatter => self.p - 1,
            Shape::Successor => 1,
            _ => log2ceil(self.p) as usize,
        }
    }

    /// Local rank `r`'s rank relative to the root.
    fn rel(self, r: usize) -> usize {
        (r + self.p - self.meet.root()) % self.p
    }

    /// The local rank of relative rank `q`.
    fn abs(self, q: usize) -> usize {
        (q + self.meet.root()) % self.p
    }

    /// Whom rank `r` sends to and receives from in step `k`, if anyone.
    fn peers(self, r: usize, k: usize) -> (Option<usize>, Option<usize>) {
        let p = self.p;
        let both = |peer| (Some(peer), Some(peer));
        match self.shape {
            Shape::Xor => both(r ^ (k + 1)),
            Shape::Shift => (Some((r + k + 1) % p), Some((r + p - k - 1) % p)),
            Shape::Doubling => both(partner(r, k as u32)),
            Shape::Ring => (Some((r + 1) % p), Some((r + p - 1) % p)),
            Shape::Halving => both(r ^ (p >> (k + 1))),
            Shape::Scatter if r == 0 => (Some(k + 1), None),
            Shape::Scatter => (None, (r == k + 1).then_some(0)),
            Shape::Dissemination => (Some((r + (1 << k)) % p), Some((r + p - (1 << k)) % p)),
            Shape::Down | Shape::Up => {
                // Relative rank `q` is the parent of `q + m` when `q` is a
                // multiple of `2m`.
                let m = match self.shape {
                    Shape::Down => 1 << (self.steps() - 1 - k),
                    _ => 1 << k,
                };
                let q = self.rel(r);
                let low = q & (2 * m - 1);
                let child = (low == 0 && q + m < p).then(|| self.abs(q + m));
                let parent = (low == m).then(|| self.abs(q - m));
                match self.shape {
                    Shape::Down => (child, parent),
                    _ => (parent, child),
                }
            }
            Shape::Prefix => ((r + (1 << k) < p).then(|| r + (1 << k)), r.checked_sub(1 << k)),
            Shape::Successor => ((r + 1 < p).then_some(r + 1), r.checked_sub(1)),
        }
    }

    /// The tag step `k`'s messages carry (recorded in `.evg` files).
    fn tag(self, k: usize) -> u32 {
        let step = match self.shape {
            Shape::Xor | Shape::Shift => (k as u32 + 1) & 0xFFFF,
            Shape::Ring => k as u32 & 0xFF,
            Shape::Down => (self.steps() - 1 - k) as u32,
            Shape::Successor => 31,
            Shape::Scatter => 0,
            _ => k as u32,
        };
        self.meet.tag() + (step << 8)
    }
}

/// The typed half of a board collective, built from every member's
/// deposited value by the member that fills the board: what each data
/// message weighs, what a step's receives combine, and what each member
/// takes home.
trait Values {
    /// Whether rank `r` starts the schedule healthy. A root that brings no
    /// value, because its own earlier step failed, sends poison on every
    /// edge.
    fn healthy(&self, _r: usize) -> bool {
        true
    }
    /// The data message rank `s`, while healthy, sends `to` in step `k`:
    /// its encoded length. A type that moves parts moves this one here.
    fn message(&mut self, s: usize, to: usize, k: usize) -> usize;
    /// Step `k` is over: each rank with `healthy[r]` that received in it
    /// took data from a healthy peer and combines it with its own partial.
    fn combine(&mut self, _k: usize, _healthy: &[bool]) {}
    /// What each member takes home, by local rank; read only by the
    /// members that end healthy.
    fn results(self) -> Vec<Payload>;
}

/// [`Proc::barrier`]: each member deposits `()`, every message is empty,
/// and each member takes its `()` home.
impl Values for Vec<()> {
    fn message(&mut self, _s: usize, _to: usize, _k: usize) -> usize {
        0
    }

    fn results(self) -> Vec<Payload> {
        self.into_iter().map(|unit| Box::new(unit) as Payload).collect()
    }
}

/// [`Proc::broadcast`]: the root deposits its value as an `Option<Arc<T>>`
/// (`None` when it has none to send) and every other member `None`; every
/// message carries the value whole, and every member takes home the shared
/// `Option<Arc<T>>`.
struct Shared<T> {
    root: usize,
    members: usize,
    value: Option<Arc<T>>,
    len: Option<usize>,
}

impl<T> Shared<T> {
    fn new(schedule: Schedule, values: Vec<Option<Arc<T>>>) -> Self {
        let (root, members) = (schedule.meet.root(), values.len());
        let value = values.into_iter().nth(root).flatten();
        Shared { root, members, value, len: None }
    }
}

impl<T: Wire + Send + Sync + 'static> Values for Shared<T> {
    fn healthy(&self, r: usize) -> bool {
        r != self.root || self.value.is_some()
    }

    fn message(&mut self, _s: usize, _to: usize, _k: usize) -> usize {
        let value = self.value.as_ref().expect("a healthy root's value");
        *self.len.get_or_insert_with(|| value.encoded_len())
    }

    fn results(self) -> Vec<Payload> {
        (0..self.members).map(|_| Box::new(self.value.clone()) as Payload).collect()
    }
}

/// [`Proc::all_to_all`]: each member deposits a `Vec<Option<T>>` of one
/// part per destination (its own slot `None`) and takes home the column
/// addressed to it.
struct Exchange<T> {
    parts: Vec<Vec<Option<T>>>,
}

impl<T: Wire + Send + 'static> Values for Exchange<T> {
    fn message(&mut self, s: usize, to: usize, _k: usize) -> usize {
        self.parts[s][to].as_ref().expect("a part per destination").encoded_len()
    }

    fn results(mut self) -> Vec<Payload> {
        (0..self.parts.len())
            .map(|d| {
                let column: Vec<Option<T>> =
                    self.parts.iter_mut().map(|row| row[d].take()).collect();
                Box::new(column) as Payload
            })
            .collect()
    }
}

/// [`Proc::exscan`]'s shift and the scatter of a non-power-of-two
/// [`Proc::reduce_scatter_blocks`]: each member deposits an
/// `Option<Vec<T>>` of the parts it sends, in step order (`None` when it
/// has none to send), and takes home a `Vec<T>` of the parts it receives.
struct Relay<T> {
    outbox: Vec<Option<std::vec::IntoIter<T>>>,
    inbox: Vec<Vec<T>>,
}

impl<T> Relay<T> {
    fn new(_: Schedule, values: Vec<Option<Vec<T>>>) -> Self {
        let inbox = values.iter().map(|_| Vec::new()).collect();
        let outbox = values.into_iter().map(|v| v.map(Vec::into_iter)).collect();
        Relay { outbox, inbox }
    }
}

impl<T: Wire + Send + 'static> Values for Relay<T> {
    fn healthy(&self, r: usize) -> bool {
        self.outbox[r].is_some()
    }

    fn message(&mut self, s: usize, to: usize, _k: usize) -> usize {
        let part = self.outbox[s].as_mut().and_then(Iterator::next).expect("a part per send");
        let len = part.encoded_len();
        self.inbox[to].push(part);
        len
    }

    fn results(self) -> Vec<Payload> {
        self.inbox.into_iter().map(|parts| Box::new(parts) as Payload).collect()
    }
}

/// [`Proc::all_gather`] and [`Proc::gather`]: each member deposits its `T`.
/// A message is the `Vec<(u64, Vec<u8>)>` of the encoded values the sender
/// holds: 8 bytes of count, then 16 of framing per value. Each member of an
/// all-gather takes home one shared `Arc<[T]>` of every value; the root of
/// a gather takes home `Some(Vec<T>)`, the others `None`.
struct Gather<T> {
    schedule: Schedule,
    framed: Vec<usize>,
    values: Vec<T>,
}

impl<T: Wire> Gather<T> {
    fn new(schedule: Schedule, values: Vec<T>) -> Self {
        let framed = values.iter().map(|v| 16 + v.encoded_len()).collect();
        Gather { schedule, framed, values }
    }
}

impl<T: Wire + Send + Sync + 'static> Values for Gather<T> {
    fn message(&mut self, s: usize, _to: usize, k: usize) -> usize {
        let p = self.values.len();
        match self.schedule.shape {
            // The block of up to 2^k ranks, aligned relative to the root,
            // that the sender has gathered.
            Shape::Doubling | Shape::Up => {
                let start = self.schedule.rel(s) & !((1 << k) - 1);
                let end = (start + (1 << k)).min(p);
                8 + (start..end).map(|q| self.framed[self.schedule.abs(q)]).sum::<usize>()
            }
            // The value that started `k` ranks back.
            Shape::Ring => 8 + self.framed[(s + p - k) % p],
            _ => unreachable!("a gather schedule"),
        }
    }

    fn results(self) -> Vec<Payload> {
        let p = self.values.len();
        if self.schedule.shape == Shape::Up {
            let root = self.schedule.meet.root();
            let mut values = Some(self.values);
            return (0..p)
                .map(|r| Box::new(if r == root { values.take() } else { None }) as Payload)
                .collect();
        }
        let shared: Arc<[T]> = Arc::from(self.values);
        (0..p).map(|_| Box::new(Arc::clone(&shared)) as Payload).collect()
    }
}

/// [`Proc::allreduce`] by recursive doubling and [`Proc::reduce`] up the
/// binomial tree: each member deposits its `T`, and each member of an
/// allreduce — or the root of a reduce — takes home one shared
/// `Option<Arc<T>>` of the result. Before step `k` every rank of an
/// aligned block of `2^k` ranks (relative to the root) that holds a
/// partial holds the block's combine: every healthy rank of the block in
/// the doubling, the block's lowest rank in the tree. Each block is
/// combined once per step, lower half's operand first — or kept, when no
/// upper half exists — where the messages' receivers would combine it.
struct Combining<'a, T, F> {
    combine: &'a F,
    schedule: Schedule,
    /// Per block of the current step, its partial while a healthy rank
    /// holds it.
    blocks: Vec<Option<T>>,
    /// Per block, its partial's encoded length once asked.
    lens: Vec<Option<usize>>,
}

impl<'a, T, F> Combining<'a, T, F> {
    fn new(schedule: Schedule, values: Vec<T>, combine: &'a F) -> Self {
        let mut blocks: Vec<Option<T>> = values.into_iter().map(Some).collect();
        blocks.rotate_left(schedule.meet.root());
        let lens = vec![None; blocks.len()];
        Combining { combine, schedule, blocks, lens }
    }
}

impl<T: Wire + Send + Sync + 'static, F: Fn(T, T) -> T> Values for Combining<'_, T, F> {
    fn message(&mut self, s: usize, _to: usize, k: usize) -> usize {
        let block = self.schedule.rel(s) >> k;
        let partial = self.blocks[block].as_ref().expect("a healthy rank's partial");
        *self.lens[block].get_or_insert_with(|| partial.encoded_len())
    }

    fn combine(&mut self, k: usize, healthy: &[bool]) {
        let (p, schedule) = (healthy.len(), self.schedule);
        let mut halves = std::mem::take(&mut self.blocks).into_iter();
        self.blocks = (0..p)
            .step_by(2 << k)
            .map(|start| {
                let (lo, hi) = (halves.next().flatten(), halves.next().flatten());
                let holds = match schedule.shape {
                    Shape::Up => healthy[schedule.abs(start)],
                    _ => healthy[start..start + (2 << k)].iter().any(|&h| h),
                };
                let lone = start + (1 << k) >= p;
                holds.then(|| {
                    let lo = lo.expect("lower partial");
                    match lone {
                        true => lo,
                        false => (self.combine)(lo, hi.expect("upper partial")),
                    }
                })
            })
            .collect();
        self.lens = vec![None; self.blocks.len()];
    }

    fn results(mut self) -> Vec<Payload> {
        let shared = self.blocks.pop().flatten().map(Arc::new);
        let root = self.schedule.meet.root();
        let up = self.schedule.shape == Shape::Up;
        (0..self.schedule.p)
            .map(|r| Box::new(shared.clone().filter(|_| !up || r == root)) as Payload)
            .collect()
    }
}

/// [`Proc::reduce_scatter_blocks`] by recursive halving: each member
/// deposits its `Vec<Vec<T>>` of one block per destination and takes home
/// its own block, combined over every member.
struct Halving<'a, T, F> {
    combine: &'a F,
    /// Per rank, the blocks of the destinations it still carries (an
    /// aligned range, halved each step), or none once it is not healthy.
    entries: Vec<Vec<Vec<T>>>,
}

impl<T: Wire + Send + 'static, F: Fn(T, T) -> T> Values for Halving<'_, T, F> {
    fn message(&mut self, s: usize, _to: usize, k: usize) -> usize {
        // The half bound for the peer's side: the upper half from the
        // lower rank of the pair, the lower half from the upper one.
        let mask = self.entries.len() >> (k + 1);
        let entries = &self.entries[s];
        let send = if s & mask == 0 { &entries[mask..] } else { &entries[..mask] };
        8 + send.iter().map(Wire::encoded_len).sum::<usize>()
    }

    fn combine(&mut self, k: usize, healthy: &[bool]) {
        let p = self.entries.len();
        let mask = p >> (k + 1);
        let combine = self.combine;
        let merge = |lower: Vec<Vec<T>>, upper: Vec<Vec<T>>| -> Vec<Vec<T>> {
            assert_eq!(lower.len(), upper.len(), "reduce_scatter halves must mirror");
            lower
                .into_iter()
                .zip(upper)
                .map(|(a, b)| combine_block(a, b, combine))
                .collect()
        };
        for lo in (0..p).filter(|r| r & mask == 0) {
            let hi = lo | mask;
            let (lo_low, lo_high) = split_at(std::mem::take(&mut self.entries[lo]), mask);
            let (hi_low, hi_high) = split_at(std::mem::take(&mut self.entries[hi]), mask);
            if healthy[lo] {
                self.entries[lo] = merge(lo_low, hi_low);
            }
            if healthy[hi] {
                self.entries[hi] = merge(lo_high, hi_high);
            }
        }
    }

    fn results(self) -> Vec<Payload> {
        self.entries
            .into_iter()
            .map(|mut own| Box::new(own.pop().unwrap_or_default()) as Payload)
            .collect()
    }
}

/// `v`'s first `at` elements and the rest; all of an empty `v` (a rank no
/// longer healthy) is both.
fn split_at<T>(mut v: Vec<T>, at: usize) -> (Vec<T>, Vec<T>) {
    let rest = v.split_off(at.min(v.len()));
    (v, rest)
}

/// [`Proc::scan`] by Hillis–Steele: each member deposits its `T`, sends its
/// partial each step, and takes home its inclusive prefix.
struct Prefix<'a, T, F> {
    combine: &'a F,
    /// Per rank, its partial: the combine of the up to `2^k` values ending
    /// at it before step `k`.
    partials: Vec<Option<T>>,
}

impl<T: Wire + Clone + Send + 'static, F: Fn(T, T) -> T> Values for Prefix<'_, T, F> {
    fn message(&mut self, s: usize, _to: usize, _k: usize) -> usize {
        self.partials[s].as_ref().expect("a partial per rank").encoded_len()
    }

    fn combine(&mut self, k: usize, healthy: &[bool]) {
        // Downward, so each rank still reads the partial its sender held
        // before the step.
        let d = 1 << k;
        for r in (d..self.partials.len()).rev().filter(|&r| healthy[r]) {
            let own = self.partials[r].take().expect("own partial");
            let lower = self.partials[r - d].clone().expect("sender's partial");
            self.partials[r] = Some((self.combine)(lower, own));
        }
    }

    fn results(self) -> Vec<Payload> {
        let partials = self.partials.into_iter().map(|v| v.expect("a partial per rank"));
        partials.map(|v| Box::new(v) as Payload).collect()
    }
}

/// Resolve a full board: run the collective's schedule over every member
/// in virtual time — the same `message_cost`, link-fault draws, poison
/// tombstones and `max(clock, arrival)` receive rule a message gets, step
/// by step (a step's sends depend only on the step before), each data
/// message sized by `values` — and hand each member its hops and its value.
fn resolve<D: 'static, V: Values>(
    shared: &SharedMachine,
    members: &[usize],
    schedule: Schedule,
    deposits: Vec<Deposit>,
    values: impl FnOnce(Schedule, Vec<D>) -> V,
) -> Vec<Outcome> {
    let p = members.len();
    let mut clock: Vec<f64> = Vec::with_capacity(p);
    let mut link_seq: Vec<Vec<u64>> = Vec::with_capacity(p);
    let mut payloads: Vec<D> = Vec::with_capacity(p);
    for d in deposits {
        clock.push(d.clock);
        link_seq.push(d.link_seq);
        payloads.push(*d.value.downcast().expect("members deposit the same type"));
    }
    let mut values = values(schedule, payloads);
    let link = &shared.faults.link;
    let link_faults = shared.link_faults();
    let fallible = schedule.meet.fallible();
    let poison_cost = shared.cost.network.message_cost(0);
    let mut hops: Vec<Vec<Hop>> = (0..p)
        .map(|_| Vec::with_capacity(schedule.steps()))
        .collect();
    // A rank is running while it takes part in the schedule, and healthy
    // while it holds its partial and sends data; a fallible schedule's
    // rank runs to the end, sending poison once it is not healthy.
    let mut running = vec![true; p];
    let mut healthy: Vec<bool> = (0..p).map(|r| values.healthy(r)).collect();
    // Per sender, the step's message: arrival, poisoned, length.
    let mut sent: Vec<Option<Arrival>> = vec![None; p];
    for k in 0..schedule.steps() {
        for s in 0..p {
            sent[s] = None;
            if !running[s] {
                continue;
            }
            let (to, _) = schedule.peers(s, k);
            let Some(to) = to.filter(|_| healthy[s]) else {
                if to.is_some() {
                    clock[s] += poison_cost;
                    sent[s] = Some(Arrival { at: clock[s], poisoned: true, len: 0 });
                }
                hops[s].push(Hop { sent: None, arrival: None });
                continue;
            };
            let len = values.message(s, to, k);
            let transit = if link_faults {
                let seq = &mut link_seq[s][to];
                *seq += 1;
                shared.faults.transit(members[s], members[to], *seq - 1)
            } else {
                Transit::CLEAN
            };
            let cost = shared.cost.network.message_cost(len);
            let (after, at) = transit.times(clock[s], cost, link);
            clock[s] = after;
            hops[s].push(Hop { sent: Some(len), arrival: None });
            sent[s] = Some(Arrival { at, poisoned: transit.failed, len });
            if transit.failed {
                healthy[s] = false;
                running[s] = fallible;
            }
        }
        for r in 0..p {
            let Some(from) = schedule.peers(r, k).1.filter(|_| running[r]) else {
                continue;
            };
            let arrival = sent[from];
            hops[r][k].arrival = arrival;
            match arrival {
                Some(Arrival { at, poisoned, .. }) => {
                    if at > clock[r] {
                        clock[r] = at;
                    }
                    if poisoned {
                        healthy[r] = false;
                        running[r] = fallible;
                    }
                }
                None => {
                    healthy[r] = false;
                    running[r] = false;
                }
            }
        }
        values.combine(k, &healthy);
    }
    hops.into_iter()
        .zip(clock)
        .zip(values.results())
        .map(|((hops, finish), value)| Outcome { hops, finish, value })
        .collect()
}
