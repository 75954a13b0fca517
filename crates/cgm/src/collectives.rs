//! Collective communication primitives, charged as point-to-point
//! messages so that their *measured* simulated cost reproduces the
//! complexities of Table 1 of the paper:
//!
//! | primitive            | hypercube cost                      |
//! |----------------------|-------------------------------------|
//! | all-to-all broadcast | `O(ts·log p + tw·m·(p-1))`          |
//! | gather               | `O(ts·log p + tw·m·p)`              |
//! | global combine       | `O(ts·log p + tw·m)` (per step `m`) |
//! | prefix sum           | `O((ts + tw·m)·log p)`              |
//!
//! All collectives must be called by **every** processor of the machine in
//! the same program order (SPMD discipline, exactly as with MPI). Combine
//! functions must be associative and commutative — combination order is
//! deterministic for a given `p` but is not the rank order.
//!
//! Four collectives are *resolved* rather than sent: they meet on their
//! communicator's board (see [`crate::exec`]). Each member deposits its
//! entry clock, link sequence numbers and typed value or parts; the last to
//! arrive runs the collective's message schedule in virtual time — the same
//! `message_cost`, link-fault draws and `max(clock, arrival)` rule a message
//! gets, each message sized by [`Wire::encoded_len`] of what it would carry
//! — and moves the values themselves, so nothing is encoded or decoded.
//! Each member then replays its own sends and receives through the
//! accounting of [`Proc::try_send_bytes`] / [`Proc::try_recv_bytes`]: the
//! same clock, counters, [`crate::Ev::Push`] / [`crate::Ev::Recv`] events,
//! mailbox gauges and link sequence numbers, with one park per call instead
//! of one per message.
//!
//! * [`Proc::all_to_all`] (pairwise XOR exchange, or the shifted ring when
//!   `p` is not a power of two) moves each part to its destination.
//! * [`Proc::all_gather`] (recursive doubling, or the ring) hands every
//!   member the same shared slice of every value: the replicas the modelled
//!   ranks hold are one allocation on the host.
//! * [`Proc::allreduce`] on a power-of-two communicator (recursive
//!   doubling) combines each pair of partials once, lower rank's operand
//!   first — the value both partners of the messages would compute — and
//!   shares the result like an all-gather.
//! * [`Proc::reduce_scatter_blocks`] on a power-of-two communicator
//!   (recursive halving) runs every block combine the messages would, in
//!   their order, lower rank's operand first.
//!
//! The last two are fallible, and the board resolves their poison schedule
//! too: after a failed edge a rank sends a poison tombstone on every
//! remaining edge instead of its partial. The other collectives stay
//! messages, as do the non-power-of-two schedules of the two reductions.
//!
//! A schedule has one body. If it has a fallible name (`try_barrier`,
//! `try_broadcast`, `try_reduce`, `try_allreduce`,
//! `try_reduce_scatter_blocks`), that body is the fallible one: a permanent
//! link failure travels as poison tombstones along every remaining edge of
//! the schedule, so every rank unblocks and returns `Err`. The plain name
//! is a view of it that panics on `Err`, exactly as [`Proc::send_bytes`]
//! relates to [`Proc::try_send_bytes`].

use std::any::Any;
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
    /// Relative rank with respect to `root` (tree algorithms are written for
    /// root 0 and relabeled).
    fn rel(&self, root: usize) -> usize {
        (self.rank() + self.nprocs() - root) % self.nprocs()
    }

    fn abs(&self, rel: usize, root: usize) -> usize {
        (rel + root) % self.nprocs()
    }

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
        let out = self.try_barrier_inner();
        self.span_end(t);
        out
    }

    fn try_barrier_inner(&mut self) -> Result<(), FaultError> {
        // Dissemination barrier: ceil(log2 p) rounds; works for any p.
        let p = self.nprocs();
        if p == 1 {
            return Ok(());
        }
        let rounds = log2ceil(p);
        let mut fault: Option<FaultError> = None;
        for r in 0..rounds {
            let d = 1usize << r;
            let to = (self.rank() + d) % p;
            let from = (self.rank() + p - d) % p;
            let tag = TAG_BARRIER + (r << 8);
            if fault.is_some() {
                self.send_poison(to, tag);
            } else if let Err(e) = self.try_send_bytes(to, tag, Vec::new()) {
                fault = Some(e);
            }
            if let Err(e) = self.try_recv_bytes(from, tag) {
                fault.get_or_insert(e);
            }
        }
        fault.map_or(Ok(()), Err)
    }

    // ------------------------------------------------------------------
    // Broadcast
    // ------------------------------------------------------------------

    /// One-to-all broadcast (binomial tree, any `p`). The root passes
    /// `Some(value)`; all other ranks pass `None` and receive the value.
    /// The root's span records the payload size (`bytes`), so large
    /// broadcasts — model deployment, configuration fan-out — are sized in
    /// traces and metrics rollups. Panics if a link fails permanently, after
    /// finishing the poison-propagating schedule of
    /// [`Proc::try_broadcast`].
    pub fn broadcast<T: Wire>(&mut self, root: usize, value: Option<T>) -> T {
        self.try_broadcast(root, value).unwrap_or_else(|e| {
            panic!("cgm: rank {} broadcast failed: {e}", self.world_rank())
        })
    }

    /// Fallible [`Proc::broadcast`]. The root still knows the value on
    /// failure but returns `Err` like everyone else, so all ranks agree on
    /// whether the broadcast completed.
    pub fn try_broadcast<T: Wire>(
        &mut self,
        root: usize,
        value: Option<T>,
    ) -> Result<T, FaultError> {
        if self.rel(root) == 0 {
            let v = value.expect("broadcast root must supply a value");
            let bytes = v.to_bytes();
            let t = self.span(
                "cgm.broadcast",
                &[("root", root as i64), ("bytes", bytes.len() as i64)],
            );
            let out = self.try_bcast_down(root, Some(&bytes));
            self.span_end(t);
            return out.map(|()| v);
        }
        assert!(value.is_none(), "non-root rank passed a broadcast value");
        let t = self.span("cgm.broadcast", &[("root", root as i64)]);
        let out = self.try_bcast_recv_forward(root);
        self.span_end(t);
        Ok(T::from_bytes(&out?).expect("broadcast decode"))
    }

    /// Root side of the broadcast tree: send `bytes` (or poison when
    /// `None`) to each child; poison once a send has failed. Returns the
    /// first fault.
    fn try_bcast_down(&mut self, root: usize, bytes: Option<&[u8]>) -> Result<(), FaultError> {
        let p = self.nprocs();
        let d = log2ceil(p);
        let mut fault: Option<FaultError> = None;
        for i in (0..d).rev() {
            let mask = 1usize << i;
            if mask < p {
                let dst = self.abs(mask, root);
                let tag = TAG_BCAST + (i << 8);
                match bytes {
                    Some(b) if fault.is_none() => {
                        if let Err(e) = self.try_send_bytes(dst, tag, b.to_vec()) {
                            fault = Some(e);
                        }
                    }
                    _ => self.send_poison(dst, tag),
                }
            }
        }
        fault.map_or(Ok(()), Err)
    }

    /// Non-root side of the broadcast tree: receive once, then forward the
    /// payload (or poison) to each subtree child.
    fn try_bcast_recv_forward(&mut self, root: usize) -> Result<Vec<u8>, FaultError> {
        let p = self.nprocs();
        let rel = self.rel(root);
        let d = log2ceil(p);
        let mut received: Option<Result<Vec<u8>, FaultError>> = None;
        for i in (0..d).rev() {
            let mask = 1usize << i;
            if rel & (mask - 1) != 0 {
                continue; // not yet participating at this step
            }
            if rel & mask != 0 {
                // Receive exactly once, at i == lowest set bit of rel.
                if received.is_none() {
                    let src = self.abs(rel & !mask, root);
                    received = Some(self.try_recv_bytes(src, TAG_BCAST + (i << 8)));
                }
            } else if let Some(state) = &received {
                let peer_rel = rel | mask;
                if peer_rel < p {
                    let dst = self.abs(peer_rel, root);
                    let tag = TAG_BCAST + (i << 8);
                    match state {
                        Ok(bytes) => {
                            let b = bytes.clone();
                            if let Err(e) = self.try_send_bytes(dst, tag, b) {
                                received = Some(Err(e));
                            }
                        }
                        Err(_) => self.send_poison(dst, tag),
                    }
                }
            }
        }
        received.expect("broadcast: non-root received nothing")
    }

    // ------------------------------------------------------------------
    // Reduce / global combine
    // ------------------------------------------------------------------

    /// All-to-one reduction (binomial tree, any `p`). Returns `Some(result)`
    /// on `root`, `None` elsewhere. `combine` must be associative and
    /// commutative. Panics if a link fails permanently, after finishing the
    /// poison-propagating schedule of [`Proc::try_reduce`].
    pub fn reduce<T: Wire>(
        &mut self,
        root: usize,
        value: T,
        combine: impl Fn(T, T) -> T,
    ) -> Option<T> {
        self.try_reduce(root, value, combine).unwrap_or_else(|e| {
            panic!("cgm: rank {} reduce failed: {e}", self.world_rank())
        })
    }

    /// Fallible [`Proc::reduce`]. Returns `Ok(Some(result))` on `root`,
    /// `Ok(None)` on other ranks, or `Err` when this rank faulted or
    /// consumed poison (a poisoned partial is forwarded up the tree so the
    /// root learns of the failure).
    pub fn try_reduce<T: Wire>(
        &mut self,
        root: usize,
        value: T,
        combine: impl Fn(T, T) -> T,
    ) -> Result<Option<T>, FaultError> {
        let bytes = self.attr_bytes(&value);
        let t = self.span("cgm.reduce", &[("root", root as i64), ("bytes", bytes)]);
        let out = self.try_reduce_inner(root, value, combine);
        self.span_end(t);
        out
    }

    fn try_reduce_inner<T: Wire>(
        &mut self,
        root: usize,
        value: T,
        combine: impl Fn(T, T) -> T,
    ) -> Result<Option<T>, FaultError> {
        let p = self.nprocs();
        if p == 1 {
            return Ok(Some(value));
        }
        let rel = self.rel(root);
        let d = log2ceil(p);
        let mut acc: Result<T, FaultError> = Ok(value);
        for i in 0..d {
            let mask = 1usize << i;
            let tag = TAG_REDUCE + (i << 8);
            if rel & mask != 0 {
                let dst = self.abs(rel & !mask, root);
                return match acc {
                    Ok(v) => {
                        self.try_send(dst, tag, &v)?;
                        Ok(None)
                    }
                    Err(e) => {
                        self.send_poison(dst, tag);
                        Err(e)
                    }
                };
            }
            let peer_rel = rel | mask;
            if peer_rel < p {
                let src = self.abs(peer_rel, root);
                let other = self.try_recv::<T>(src, tag);
                acc = match (acc, other) {
                    (Ok(a), Ok(b)) => Ok(combine(a, b)),
                    (Err(e), _) | (Ok(_), Err(e)) => Err(e),
                };
            }
        }
        debug_assert_eq!(rel, 0);
        acc.map(Some)
    }

    /// All-to-all reduction: every rank gets the combined value.
    ///
    /// Uses recursive doubling when `p` is a power of two (cost
    /// `(ts + tw·m)·log p`), resolved on the communicator's board (see the
    /// [module docs](self)); otherwise reduce-to-0 followed by broadcast.
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
        let out = self.try_allreduce_inner(value, combine);
        self.span_end(t);
        out
    }

    fn try_allreduce_inner<T>(
        &mut self,
        value: T,
        combine: impl Fn(T, T) -> T,
    ) -> Result<T, FaultError>
    where
        T: Wire + Clone + Send + Sync + 'static,
    {
        let p = self.nprocs();
        if p == 1 {
            return Ok(value);
        }
        if is_pow2(p) {
            let out = self.meet(Meet::AllReduce, Box::new(value), |values| {
                Combining::new(values, &combine)
            })?;
            let shared = *out.downcast::<Option<Arc<T>>>().expect("allreduce result");
            return Ok(Arc::unwrap_or_clone(shared.expect("a healthy rank holds the result")));
        }
        // Reduce to 0 then broadcast; a failure anywhere poisons the root,
        // which then poisons everyone.
        let reduced = self.try_reduce(0, value, combine);
        if self.rank() == 0 {
            match reduced {
                Ok(v) => self.try_broadcast(0, v),
                Err(e) => {
                    let _ = self.try_bcast_down(0, None);
                    Err(e)
                }
            }
        } else {
            let bc = self.try_broadcast::<T>(0, None);
            reduced.and(bc)
        }
    }

    /// Global minimum with the rank that achieved it (ties broken by lower
    /// rank). This is the paper's "min-reduction primitive on the local
    /// minimum gini indices".
    pub fn min_loc(&mut self, value: f64) -> (f64, usize) {
        let bytes = self.attr_bytes(&(value, self.rank() as u64));
        let t = self.span("cgm.min_loc", &[("bytes", bytes)]);
        let out = self.min_loc_inner(value);
        self.span_end(t);
        out
    }

    fn min_loc_inner(&mut self, value: f64) -> (f64, usize) {
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
        let (v, r) = self.allreduce(pair, |a, b| {
            if (key(b.0), b.1) < (key(a.0), a.1) {
                b
            } else {
                a
            }
        });
        (v, r as usize)
    }

    // ------------------------------------------------------------------
    // Prefix sum (scan)
    // ------------------------------------------------------------------

    /// Inclusive prefix combine (Hillis–Steele, any `p`): rank `i` gets
    /// `v_0 (+) v_1 (+) … (+) v_i`. `combine` must be associative.
    pub fn scan<T: Wire + Clone>(&mut self, value: T, combine: impl Fn(T, T) -> T) -> T {
        let bytes = self.attr_bytes(&value);
        let t = self.span("cgm.scan", &[("bytes", bytes)]);
        let out = self.scan_inner(value, combine);
        self.span_end(t);
        out
    }

    fn scan_inner<T: Wire + Clone>(&mut self, value: T, combine: impl Fn(T, T) -> T) -> T {
        let p = self.nprocs();
        let mut acc = value;
        let mut d = 1usize;
        let mut step = 0u32;
        while d < p {
            let tag = TAG_SCAN + (step << 8);
            let outgoing = acc.clone();
            if self.rank() + d < p {
                self.send(self.rank() + d, tag, &outgoing);
            }
            if self.rank() >= d {
                let other: T = self.recv(self.rank() - d, tag);
                acc = combine(other, acc);
            }
            d *= 2;
            step += 1;
        }
        acc
    }

    /// Exclusive prefix combine: rank `i` gets `v_0 (+) … (+) v_{i-1}`, and
    /// rank 0 gets `identity`.
    pub fn exscan<T: Wire + Clone>(
        &mut self,
        value: T,
        identity: T,
        combine: impl Fn(T, T) -> T,
    ) -> T {
        let bytes = self.attr_bytes(&value);
        let t = self.span("cgm.exscan", &[("bytes", bytes)]);
        let out = self.exscan_inner(value, identity, combine);
        self.span_end(t);
        out
    }

    fn exscan_inner<T: Wire + Clone>(
        &mut self,
        value: T,
        identity: T,
        combine: impl Fn(T, T) -> T,
    ) -> T {
        // Run an inclusive scan of (identity-shifted) pairs: simplest correct
        // formulation is an inclusive scan followed by a shift via p2p.
        let p = self.nprocs();
        let inclusive = self.scan(value, combine);
        if p == 1 {
            return identity;
        }
        let tag = TAG_SCAN + (31 << 8);
        if self.rank() + 1 < p {
            self.send(self.rank() + 1, tag, &inclusive);
        }
        if self.rank() == 0 {
            identity
        } else {
            self.recv(self.rank() - 1, tag)
        }
    }

    // ------------------------------------------------------------------
    // Gather / all-gather
    // ------------------------------------------------------------------

    /// All-to-one gather (binomial tree). Returns `Some(values)` on `root`
    /// (indexed by rank), `None` elsewhere.
    pub fn gather<T: Wire>(&mut self, root: usize, value: T) -> Option<Vec<T>> {
        let bytes = self.attr_bytes(&value);
        let t = self.span("cgm.gather", &[("root", root as i64), ("bytes", bytes)]);
        let out = self.gather_inner(root, value);
        self.span_end(t);
        out
    }

    fn gather_inner<T: Wire>(&mut self, root: usize, value: T) -> Option<Vec<T>> {
        let p = self.nprocs();
        let rel = self.rel(root);
        let d = log2ceil(p);
        // Accumulate (rank, encoded value) pairs up the binomial tree so the
        // message volume doubles per level: ts·log p + tw·m·p total at root.
        let mut acc: Vec<(u64, Vec<u8>)> = vec![(self.rank() as u64, value.to_bytes())];
        for i in 0..d {
            let mask = 1usize << i;
            if rel & (mask - 1) != 0 {
                unreachable!("rank already retired from gather");
            }
            if rel & mask != 0 {
                let dst = self.abs(rel & !mask, root);
                self.send(dst, TAG_GATHER + (i << 8), &acc);
                return None;
            }
            let peer_rel = rel | mask;
            if peer_rel < p {
                let src = self.abs(peer_rel, root);
                let mut other: Vec<(u64, Vec<u8>)> =
                    self.recv(src, TAG_GATHER + (i << 8));
                acc.append(&mut other);
            }
        }
        debug_assert_eq!(rel, 0);
        acc.sort_by_key(|(rank, _)| *rank);
        debug_assert_eq!(acc.len(), p);
        Some(
            acc.into_iter()
                .map(|(_, bytes)| T::from_bytes(&bytes).expect("gather decode"))
                .collect(),
        )
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
            let out = self
                .meet(Meet::AllGather, Box::new(value), Gather::<T>::new)
                .expect("an infallible schedule panics at its fault");
            *out.downcast::<Arc<[T]>>().expect("all_gather result")
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
    pub fn reduce_scatter_blocks<T: Wire + Send + 'static>(
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
    pub fn try_reduce_scatter_blocks<T: Wire + Send + 'static>(
        &mut self,
        blocks: Vec<Vec<T>>,
        combine: impl Fn(T, T) -> T,
    ) -> Result<Vec<T>, FaultError> {
        let p = self.nprocs();
        let halving = is_pow2(p) && p > 1;
        let name = if halving { "cgm.reduce_scatter.halving" } else { "cgm.reduce_scatter.fanin" };
        let t = self.span(name, &[]);
        let out = if halving {
            self.check_blocks(&blocks);
            self.meet(Meet::ReduceScatter, Box::new(blocks), |values| {
                Halving::new(values, &combine)
            })
            .map(|out| *out.downcast::<Vec<T>>().expect("reduce_scatter result"))
        } else {
            self.try_reduce_scatter_fanin(blocks, combine)
        };
        self.span_end(t);
        out
    }

    fn check_blocks<T>(&self, blocks: &[Vec<T>]) {
        assert_eq!(
            blocks.len(),
            self.nprocs(),
            "reduce_scatter needs exactly one block per rank"
        );
    }

    fn try_reduce_scatter_fanin<T: Wire>(
        &mut self,
        blocks: Vec<Vec<T>>,
        combine: impl Fn(T, T) -> T,
    ) -> Result<Vec<T>, FaultError> {
        self.check_blocks(&blocks);
        let p = self.nprocs();
        if p == 1 {
            return Ok(blocks.into_iter().next().unwrap());
        }
        let merged = self.try_reduce_inner(0, blocks, |a: Vec<Vec<T>>, b: Vec<Vec<T>>| {
            a.into_iter()
                .zip(b)
                .map(|(x, y)| combine_block(x, y, &combine))
                .collect()
        });
        if self.rank() == 0 {
            match merged {
                Ok(merged) => {
                    let mut merged = merged.expect("rank 0 holds the fan-in result");
                    let mut fault: Option<FaultError> = None;
                    for (j, block) in merged.drain(1..).enumerate() {
                        if fault.is_some() {
                            self.send_poison(j + 1, TAG_REDUCE_SCATTER);
                        } else if let Err(e) = self.try_send(j + 1, TAG_REDUCE_SCATTER, &block) {
                            fault = Some(e);
                        }
                    }
                    fault.map_or(Ok(merged.into_iter().next().unwrap()), Err)
                }
                Err(e) => {
                    for j in 1..p {
                        self.send_poison(j, TAG_REDUCE_SCATTER);
                    }
                    Err(e)
                }
            }
        } else {
            let scattered = self.try_recv::<Vec<T>>(0, TAG_REDUCE_SCATTER);
            merged.and(scattered)
        }
    }

    /// Personalized all-to-all: `parts[j]` is delivered to rank `j`; the
    /// result's element `i` is what rank `i` addressed to this rank.
    /// `parts[self.rank()]` is returned in place without transfer cost.
    pub fn all_to_all<T: Wire + Send + 'static>(&mut self, parts: Vec<T>) -> Vec<T> {
        let bytes = self.attr_bytes(&parts);
        let t = self.span("cgm.all_to_all", &[("bytes", bytes)]);
        let out = self.all_to_all_inner(parts);
        self.span_end(t);
        out
    }

    fn all_to_all_inner<T: Wire + Send + 'static>(&mut self, parts: Vec<T>) -> Vec<T> {
        let p = self.nprocs();
        assert_eq!(parts.len(), p, "all_to_all needs exactly one part per rank");
        if p == 1 {
            return parts;
        }
        // The own part stays here.
        let me = self.rank();
        let mut parts: Vec<Option<T>> = parts.into_iter().map(Some).collect();
        let mut own = parts[me].take();
        let out = self
            .meet(Meet::AllToAll, Box::new(parts), Exchange::<T>::new)
            .expect("an infallible schedule panics at its fault");
        let column = *out.downcast::<Vec<Option<T>>>().expect("all_to_all result");
        column
            .into_iter()
            .enumerate()
            .map(|(j, part)| match j == me {
                true => own.take().expect("own part"),
                false => part.expect("every other member addressed this one"),
            })
            .collect()
    }

    /// Meet the communicator's other members on its board (see
    /// [`crate::exec`]) with this rank's typed `value` (see each
    /// [`Values`] implementation for what it is), then replay this rank's
    /// side of the schedule the board resolved: each step's send — data or
    /// poison — and receive through the accounting a message gets. The
    /// member that fills the board builds the [`Values`] from every
    /// member's `value`, in local-rank order, with `values`. Returns what
    /// the board handed this rank, or the first fault of a fallible
    /// schedule; an infallible one panics at its fault.
    fn meet<V: Values>(
        &mut self,
        meet: Meet,
        value: Payload,
        values: impl FnOnce(Vec<Payload>) -> V,
    ) -> Result<Payload, FaultError> {
        let (members, local) = self.communicator();
        let schedule = Schedule::of(meet, members.len());
        let deposit = Deposit {
            meet,
            clock: self.clock(),
            link_seq: self.link_seqs(&members),
            value,
        };
        let shared = self.shared();
        let outcome = shared.exec.meet(&members, local, deposit, |deposits| {
            resolve(&shared, &members, schedule, deposits, values)
        });
        let fallible = schedule.fallible();
        let mut fault: Option<FaultError> = None;
        for (k, hop) in outcome.hops.iter().enumerate() {
            let (to, from) = schedule.peers(local, k);
            let tag = schedule.tag(k);
            match hop.sent {
                Some(len) => {
                    if let (_, Err(e)) = self.charge_send(members[to], tag, len) {
                        if !fallible {
                            self.send_failed(to, tag, e);
                        }
                        fault.get_or_insert(e);
                    }
                }
                None => self.charge_poison(members[to], tag),
            }
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
        fault.map_or(Ok(outcome.value), Err)
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

/// A collective that meets on its communicator's board (see
/// [`crate::exec`]) instead of parking once per message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Meet {
    /// [`Proc::all_to_all`].
    AllToAll,
    /// [`Proc::all_gather`].
    AllGather,
    /// [`Proc::allreduce`], `p` a power of two.
    AllReduce,
    /// [`Proc::reduce_scatter_blocks`], `p` a power of two.
    ReduceScatter,
}

impl Meet {
    /// How deadlock reports name the collective.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Meet::AllToAll => "all_to_all",
            Meet::AllGather => "all_gather",
            Meet::AllReduce => "allreduce",
            Meet::ReduceScatter => "reduce_scatter_blocks",
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

/// One step of a member's schedule: it sends, then receives.
struct Hop {
    /// The length of the data message sent, or `None` for a poison
    /// tombstone (a fallible schedule's rank after its fault).
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

/// The exchange schedule of a board collective over `p` ranks.
#[derive(Clone, Copy)]
enum Schedule {
    /// `all_to_all`, `p` a power of two: in step `k` rank `r` exchanges
    /// with `r ^ (k + 1)` (perfectly matched pairs).
    Xor(usize),
    /// `all_to_all`, any other `p`: sends to `r + k + 1`, receives from
    /// `r - k - 1` (mod `p`).
    Shift(usize),
    /// `all_gather`, `p` a power of two: recursive doubling — in step `k`
    /// rank `r` exchanges everything it holds with `r ^ 2^k`. Doubling
    /// whenever it applies: both schedules share the `tw·m·(p-1)`
    /// bandwidth term and the ring pays `p - 1` startups against
    /// doubling's `log p`, so no payload size favors the ring.
    Doubling(usize),
    /// `all_gather`, any other `p`: `p - 1` steps around the ring, each
    /// forwarding the value received in the step before.
    Ring(usize),
    /// `allreduce`, `p` a power of two: recursive doubling — in step `k`
    /// rank `r` exchanges its partial with `r ^ 2^k` and both combine.
    Combining(usize),
    /// `reduce_scatter_blocks`, `p` a power of two: recursive halving — in
    /// step `k` rank `r` sends the half of its blocks bound for
    /// `r ^ (p >> (k + 1))`'s side to that rank and combines the other half
    /// with what it receives.
    Halving(usize),
}

impl Schedule {
    fn of(meet: Meet, p: usize) -> Schedule {
        match (meet, is_pow2(p)) {
            (Meet::AllToAll, true) => Schedule::Xor(p),
            (Meet::AllToAll, false) => Schedule::Shift(p),
            (Meet::AllGather, true) => Schedule::Doubling(p),
            (Meet::AllGather, false) => Schedule::Ring(p),
            (Meet::AllReduce, true) => Schedule::Combining(p),
            (Meet::ReduceScatter, true) => Schedule::Halving(p),
            (Meet::AllReduce | Meet::ReduceScatter, false) => {
                unreachable!("{} meets only on a power of two", meet.name())
            }
        }
    }

    fn steps(self) -> usize {
        match self {
            Schedule::Xor(p) | Schedule::Shift(p) | Schedule::Ring(p) => p - 1,
            Schedule::Doubling(p) | Schedule::Combining(p) | Schedule::Halving(p) => {
                log2ceil(p) as usize
            }
        }
    }

    /// Whether a rank goes on after a fault, sending poison on every
    /// remaining edge, and returns `Err` at the end. In an infallible
    /// schedule it panics at the fault.
    fn fallible(self) -> bool {
        matches!(self, Schedule::Combining(_) | Schedule::Halving(_))
    }

    /// Whom rank `r` sends to and receives from in step `k`.
    fn peers(self, r: usize, k: usize) -> (usize, usize) {
        match self {
            Schedule::Xor(_) => (r ^ (k + 1), r ^ (k + 1)),
            Schedule::Shift(p) => ((r + k + 1) % p, (r + p - k - 1) % p),
            Schedule::Doubling(_) | Schedule::Combining(_) => {
                (partner(r, k as u32), partner(r, k as u32))
            }
            Schedule::Ring(p) => ((r + 1) % p, (r + p - 1) % p),
            Schedule::Halving(p) => (r ^ (p >> (k + 1)), r ^ (p >> (k + 1))),
        }
    }

    /// The tag step `k`'s messages carry (recorded in `.evg` files).
    fn tag(self, k: usize) -> u32 {
        match self {
            Schedule::Xor(_) | Schedule::Shift(_) => {
                TAG_ALLTOALL + (((k + 1) as u32 & 0xFFFF) << 8)
            }
            Schedule::Doubling(_) => TAG_ALLGATHER + ((k as u32) << 8),
            Schedule::Ring(_) => TAG_ALLGATHER + ((k as u32 & 0xFF) << 8),
            Schedule::Combining(_) => TAG_ALLREDUCE + ((k as u32) << 8),
            Schedule::Halving(_) => TAG_REDUCE_SCATTER + ((k as u32) << 8),
        }
    }
}

/// The typed half of a board collective, built from every member's
/// deposited value by the member that fills the board: what each data
/// message weighs, what a step's receives combine, and what each member
/// takes home.
trait Values {
    /// The encoded length of what rank `s` sends to `to` in step `k`, while
    /// `s` is healthy.
    fn len(&mut self, s: usize, to: usize, k: usize) -> usize;
    /// Step `k` is over: each rank with `healthy[r]` took data from a
    /// healthy peer and combines it with its own partial.
    fn combine(&mut self, _k: usize, _healthy: &[bool]) {}
    /// What each member takes home, by local rank; read only by the
    /// members that end healthy.
    fn results(self) -> Vec<Payload>;
}

/// [`Proc::all_to_all`]: each member deposits a `Vec<Option<T>>` of one
/// part per destination (its own slot `None`) and takes home the column
/// addressed to it.
struct Exchange<T> {
    parts: Vec<Vec<Option<T>>>,
}

impl<T: Wire + Send + 'static> Exchange<T> {
    fn new(values: Vec<Payload>) -> Self {
        let parts = values
            .into_iter()
            .map(|v| *v.downcast::<Vec<Option<T>>>().expect("all_to_all parts"))
            .collect();
        Exchange { parts }
    }
}

impl<T: Wire + Send + 'static> Values for Exchange<T> {
    fn len(&mut self, s: usize, to: usize, _k: usize) -> usize {
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

/// [`Proc::all_gather`]: each member deposits its `T` and takes home one
/// shared `Arc<[T]>` of every value. A message is the
/// `Vec<(u64, Vec<u8>)>` of the encoded values the sender holds: 8 bytes of
/// count, then 16 of framing per value.
struct Gather<T> {
    schedule: Schedule,
    framed: Vec<usize>,
    values: Vec<T>,
}

impl<T: Wire + Send + Sync + 'static> Gather<T> {
    fn new(values: Vec<Payload>) -> Self {
        let schedule = Schedule::of(Meet::AllGather, values.len());
        let values: Vec<T> = values
            .into_iter()
            .map(|v| *v.downcast::<T>().expect("all_gather value"))
            .collect();
        let framed = values.iter().map(|v| 16 + v.encoded_len()).collect();
        Gather { schedule, framed, values }
    }
}

impl<T: Wire + Send + Sync + 'static> Values for Gather<T> {
    fn len(&mut self, s: usize, _to: usize, k: usize) -> usize {
        match self.schedule {
            // The aligned block of 2^k ranks the sender has gathered.
            Schedule::Doubling(_) => {
                let block = s & !((1 << k) - 1);
                8 + self.framed[block..block + (1 << k)].iter().sum::<usize>()
            }
            // The value that started `k` ranks back.
            Schedule::Ring(p) => 8 + self.framed[(s + p - k) % p],
            _ => unreachable!("an all-gather schedule"),
        }
    }

    fn results(self) -> Vec<Payload> {
        let p = self.values.len();
        let shared: Arc<[T]> = Arc::from(self.values);
        (0..p).map(|_| Box::new(Arc::clone(&shared)) as Payload).collect()
    }
}

/// [`Proc::allreduce`] by recursive doubling: each member deposits its `T`
/// and takes home one shared `Option<Arc<T>>` of the result. Before step
/// `k` every healthy rank of an aligned block of `2^k` ranks holds the same
/// partial — the block's combine — so each block is combined once per
/// step, lower half's operand first, where both partners of the messages
/// would combine it.
struct Combining<'a, T, F> {
    combine: &'a F,
    members: usize,
    /// Per block of the current step, its partial while a healthy rank
    /// holds it.
    blocks: Vec<Option<T>>,
    /// Per block, its partial's encoded length once asked.
    lens: Vec<Option<usize>>,
}

impl<'a, T: Wire + Send + Sync + 'static, F: Fn(T, T) -> T> Combining<'a, T, F> {
    fn new(values: Vec<Payload>, combine: &'a F) -> Self {
        let blocks: Vec<Option<T>> = values
            .into_iter()
            .map(|v| Some(*v.downcast::<T>().expect("allreduce value")))
            .collect();
        let members = blocks.len();
        let lens = vec![None; members];
        Combining { combine, members, blocks, lens }
    }
}

impl<T: Wire + Send + Sync + 'static, F: Fn(T, T) -> T> Values for Combining<'_, T, F> {
    fn len(&mut self, s: usize, _to: usize, k: usize) -> usize {
        let block = s >> k;
        let partial = self.blocks[block].as_ref().expect("a healthy rank's partial");
        *self.lens[block].get_or_insert_with(|| partial.encoded_len())
    }

    fn combine(&mut self, k: usize, healthy: &[bool]) {
        let mut halves = std::mem::take(&mut self.blocks).into_iter();
        self.blocks = healthy
            .chunks(2 << k)
            .map(|ranks| {
                let (lo, hi) = (halves.next().flatten(), halves.next().flatten());
                ranks.iter().any(|&h| h).then(|| {
                    (self.combine)(lo.expect("lower partial"), hi.expect("upper partial"))
                })
            })
            .collect();
        self.lens = vec![None; self.blocks.len()];
    }

    fn results(mut self) -> Vec<Payload> {
        let shared = self.blocks.pop().flatten().map(Arc::new);
        (0..self.members).map(|_| Box::new(shared.clone()) as Payload).collect()
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

impl<'a, T: Wire + Send + 'static, F: Fn(T, T) -> T> Halving<'a, T, F> {
    fn new(values: Vec<Payload>, combine: &'a F) -> Self {
        let entries = values
            .into_iter()
            .map(|v| *v.downcast::<Vec<Vec<T>>>().expect("reduce_scatter blocks"))
            .collect();
        Halving { combine, entries }
    }
}

impl<T: Wire + Send + 'static, F: Fn(T, T) -> T> Values for Halving<'_, T, F> {
    fn len(&mut self, s: usize, _to: usize, k: usize) -> usize {
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

/// Resolve a full board: run the collective's schedule over every member
/// in virtual time — the same `message_cost`, link-fault draws, poison
/// tombstones and `max(clock, arrival)` receive rule a message gets, step
/// by step (a step's sends depend only on the step before), each data
/// message sized by `values` — and hand each member its hops and its value.
fn resolve<V: Values>(
    shared: &SharedMachine,
    members: &[usize],
    schedule: Schedule,
    deposits: Vec<Deposit>,
    values: impl FnOnce(Vec<Payload>) -> V,
) -> Vec<Outcome> {
    let p = members.len();
    let mut clock: Vec<f64> = Vec::with_capacity(p);
    let mut link_seq: Vec<Vec<u64>> = Vec::with_capacity(p);
    let mut payloads: Vec<Payload> = Vec::with_capacity(p);
    for d in deposits {
        clock.push(d.clock);
        link_seq.push(d.link_seq);
        payloads.push(d.value);
    }
    let mut values = values(payloads);
    let link = &shared.faults.link;
    let link_faults = shared.link_faults();
    let fallible = schedule.fallible();
    let poison_cost = shared.cost.network.message_cost(0);
    let mut hops: Vec<Vec<Hop>> = (0..p)
        .map(|_| Vec::with_capacity(schedule.steps()))
        .collect();
    // A rank is running while it takes part in the schedule, and healthy
    // while it holds its partial and sends data; a fallible schedule's
    // rank runs to the end, sending poison once it is not healthy.
    let mut running = vec![true; p];
    let mut healthy = vec![true; p];
    // Per sender, the step's message: arrival, poisoned, length.
    let mut sent: Vec<Option<Arrival>> = vec![None; p];
    for k in 0..schedule.steps() {
        for s in 0..p {
            sent[s] = None;
            if !running[s] {
                continue;
            }
            let to = schedule.peers(s, k).0;
            if !healthy[s] {
                clock[s] += poison_cost;
                hops[s].push(Hop { sent: None, arrival: None });
                sent[s] = Some(Arrival { at: clock[s], poisoned: true, len: 0 });
                continue;
            }
            let len = values.len(s, to, k);
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
            if !running[r] {
                continue;
            }
            let arrival = sent[schedule.peers(r, k).1];
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
                None => running[r] = false,
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
