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
//! Two collectives are *resolved* rather than sent. [`Proc::all_to_all`]
//! (pairwise XOR exchange, or the shifted ring when `p` is not a power of
//! two) and [`Proc::all_gather`] (recursive doubling, or the ring) move
//! bytes that no rank combines and cannot fail softly, so their schedules
//! are pure functions of every member's entry clock, part sizes and link
//! sequence numbers. Each member deposits those on its communicator's board
//! (see [`crate::exec`]); the last to arrive runs the schedule in virtual
//! time — the same `message_cost`, link-fault draws and
//! `max(clock, arrival)` rule a message gets — and each member then replays
//! its own sends and receives through the accounting of
//! [`Proc::try_send_bytes`] / [`Proc::try_recv_bytes`]: the same clock,
//! counters, [`crate::Ev::Push`] / [`crate::Ev::Recv`] events, mailbox
//! gauges and link sequence numbers, with one park per call instead of one
//! per message. The others stay messages: a reduction's combine order, and
//! the poison a fallible schedule forwards along its remaining edges, are
//! part of its result.
//!
//! A schedule has one body. If it has a fallible name (`try_barrier`,
//! `try_broadcast`, `try_reduce`, `try_allreduce`,
//! `try_reduce_scatter_blocks`), that body is the fallible one: a permanent
//! link failure travels as poison tombstones along every remaining edge of
//! the schedule, so every rank unblocks and returns `Err`. The plain name
//! is a view of it that panics on `Err`, exactly as [`Proc::send_bytes`]
//! relates to [`Proc::try_send_bytes`].

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
    /// are enabled (the extra encoding is host-side work; virtual time is
    /// untouched either way); with spans off the attribute is never stored,
    /// so the placeholder 0 is unobservable.
    fn attr_bytes<T: Wire>(&self, value: &T) -> i64 {
        if self.spans_enabled() {
            value.to_bytes().len() as i64
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
    /// `(ts + tw·m)·log p`), otherwise reduce-to-0 followed by broadcast.
    /// Panics if a link fails permanently, after finishing the
    /// poison-propagating schedule of [`Proc::try_allreduce`].
    pub fn allreduce<T: Wire>(&mut self, value: T, combine: impl Fn(T, T) -> T) -> T {
        self.try_allreduce(value, combine).unwrap_or_else(|e| {
            panic!("cgm: rank {} allreduce failed: {e}", self.world_rank())
        })
    }

    /// Fallible [`Proc::allreduce`]: surfaces `Err` on every rank when a
    /// link fails permanently (poison doubles per step of the recursive
    /// doubling, or reaches the root of the reduce–broadcast pair, which
    /// then poisons everyone), instead of hanging.
    pub fn try_allreduce<T: Wire>(
        &mut self,
        value: T,
        combine: impl Fn(T, T) -> T,
    ) -> Result<T, FaultError> {
        let bytes = self.attr_bytes(&value);
        let t = self.span("cgm.allreduce", &[("bytes", bytes)]);
        let out = self.try_allreduce_inner(value, combine);
        self.span_end(t);
        out
    }

    fn try_allreduce_inner<T: Wire>(
        &mut self,
        value: T,
        combine: impl Fn(T, T) -> T,
    ) -> Result<T, FaultError> {
        let p = self.nprocs();
        if p == 1 {
            return Ok(value);
        }
        if is_pow2(p) {
            let d = log2ceil(p);
            let mut acc: Result<T, FaultError> = Ok(value);
            for i in 0..d {
                let peer = partner(self.rank(), i);
                let tag = TAG_ALLREDUCE + (i << 8);
                let sent = match &acc {
                    Ok(v) => self.try_send(peer, tag, v),
                    Err(_) => {
                        self.send_poison(peer, tag);
                        Ok(())
                    }
                };
                let other = self.try_recv::<T>(peer, tag);
                // Deterministic combination order: lower rank's contribution
                // first.
                acc = match (acc, sent, other) {
                    (Ok(a), Ok(()), Ok(b)) => Ok(if self.rank() < peer {
                        combine(a, b)
                    } else {
                        combine(b, a)
                    }),
                    (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => Err(e),
                };
            }
            acc
        } else {
            // Reduce to 0 then broadcast; a failure anywhere poisons the
            // root, which then poisons everyone.
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
    pub fn all_gather<T: Wire>(&mut self, value: T) -> Vec<T> {
        let bytes = self.attr_bytes(&value);
        let t = self.span("cgm.all_gather", &[("bytes", bytes)]);
        let out = self.all_gather_inner(value);
        self.span_end(t);
        out
    }

    fn all_gather_inner<T: Wire>(&mut self, value: T) -> Vec<T> {
        if self.nprocs() == 1 {
            return vec![value];
        }
        self.meet(Meet::AllGather, vec![value.to_bytes()])
            .iter()
            .map(|bytes| T::from_bytes(bytes).expect("all_gather decode"))
            .collect()
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
    pub fn reduce_scatter_blocks<T: Wire>(
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
    pub fn try_reduce_scatter_blocks<T: Wire>(
        &mut self,
        blocks: Vec<Vec<T>>,
        combine: impl Fn(T, T) -> T,
    ) -> Result<Vec<T>, FaultError> {
        let p = self.nprocs();
        let halving = is_pow2(p) && p > 1;
        let name = if halving { "cgm.reduce_scatter.halving" } else { "cgm.reduce_scatter.fanin" };
        let t = self.span(name, &[]);
        let out = if halving {
            self.try_reduce_scatter_halving(blocks, combine)
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

    fn combine_block<T>(a: Vec<T>, b: Vec<T>, combine: &impl Fn(T, T) -> T) -> Vec<T> {
        assert_eq!(a.len(), b.len(), "reduce_scatter blocks must align across ranks");
        a.into_iter().zip(b).map(|(x, y)| combine(x, y)).collect()
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
                .map(|(x, y)| Self::combine_block(x, y, &combine))
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

    fn try_reduce_scatter_halving<T: Wire>(
        &mut self,
        blocks: Vec<Vec<T>>,
        combine: impl Fn(T, T) -> T,
    ) -> Result<Vec<T>, FaultError> {
        self.check_blocks(&blocks);
        let p = self.nprocs();
        debug_assert!(is_pow2(p) && p > 1);
        // Destination-tagged blocks, kept sorted by destination; each round
        // halves the set of destinations this rank still carries.
        let mut entries: Vec<(usize, Vec<T>)> = blocks.into_iter().enumerate().collect();
        let mut fault: Option<FaultError> = None;
        let d = log2ceil(p);
        for i in 0..d {
            let mask = p >> (i + 1);
            let peer = self.rank() ^ mask;
            let (keep, send): (Vec<_>, Vec<_>) = entries
                .into_iter()
                .partition(|(dst, _)| dst & mask == self.rank() & mask);
            let tag = TAG_REDUCE_SCATTER + (i << 8);
            if fault.is_some() {
                self.send_poison(peer, tag);
            } else {
                let payload: Vec<Vec<T>> = send.into_iter().map(|(_, v)| v).collect();
                if let Err(e) = self.try_send(peer, tag, &payload) {
                    fault = Some(e);
                }
            }
            match self.try_recv::<Vec<Vec<T>>>(peer, tag) {
                Ok(other) if fault.is_none() => {
                    // The peer's send set is exactly my keep set's
                    // destinations, in the same ascending order, so a
                    // positional zip aligns.
                    assert_eq!(other.len(), keep.len(), "reduce_scatter halves must mirror");
                    let lower_first = self.rank() < peer;
                    entries = keep
                        .into_iter()
                        .zip(other)
                        .map(|((dst, mine), theirs)| {
                            let merged = if lower_first {
                                Self::combine_block(mine, theirs, &combine)
                            } else {
                                Self::combine_block(theirs, mine, &combine)
                            };
                            (dst, merged)
                        })
                        .collect();
                }
                Ok(_) => entries = keep,
                Err(e) => {
                    fault.get_or_insert(e);
                    entries = keep;
                }
            }
        }
        if let Some(e) = fault {
            return Err(e);
        }
        debug_assert_eq!(entries.len(), 1);
        let (dst, block) = entries.pop().unwrap();
        debug_assert_eq!(dst, self.rank());
        Ok(block)
    }

    /// Personalized all-to-all: `parts[j]` is delivered to rank `j`; the
    /// result's element `i` is what rank `i` addressed to this rank.
    /// `parts[self.rank()]` is returned in place without transfer cost.
    pub fn all_to_all<T: Wire>(&mut self, parts: Vec<T>) -> Vec<T> {
        let bytes = self.attr_bytes(&parts);
        let t = self.span("cgm.all_to_all", &[("bytes", bytes)]);
        let out = self.all_to_all_inner(parts);
        self.span_end(t);
        out
    }

    fn all_to_all_inner<T: Wire>(&mut self, parts: Vec<T>) -> Vec<T> {
        let p = self.nprocs();
        assert_eq!(parts.len(), p, "all_to_all needs exactly one part per rank");
        if p == 1 {
            return parts;
        }
        // The own part stays here, never encoded.
        let me = self.rank();
        let mut own = None;
        let encoded = parts
            .into_iter()
            .enumerate()
            .map(|(j, part)| {
                if j == me {
                    own = Some(part);
                    Vec::new()
                } else {
                    part.to_bytes()
                }
            })
            .collect();
        self.meet(Meet::AllToAll, encoded)
            .iter()
            .enumerate()
            .map(|(j, bytes)| match j == me {
                true => own.take().expect("own part"),
                false => T::from_bytes(bytes).expect("all_to_all decode"),
            })
            .collect()
    }

    /// Meet the communicator's other members on its board (see
    /// [`crate::exec`]) with this rank's encoded `parts` (one per member
    /// for [`Meet::AllToAll`], the own value for [`Meet::AllGather`]), then
    /// replay this rank's side of the schedule the board resolved: each
    /// step's send and receive through the accounting a message gets.
    /// Returns the parts each member addressed to this one (the own slot
    /// empty), or every member's value.
    fn meet(&mut self, meet: Meet, parts: Vec<Vec<u8>>) -> Arc<Vec<Vec<u8>>> {
        let (members, local) = self.communicator();
        let deposit = Deposit {
            meet,
            clock: self.clock(),
            parts,
            link_seq: self.link_seqs(&members),
        };
        let shared = self.shared();
        let outcome = shared.exec.meet(&members, local, deposit, |deposits| {
            resolve(&shared, &members, deposits)
        });
        let schedule = Schedule::of(meet, members.len());
        for (k, hop) in outcome.hops.iter().enumerate() {
            let (to, from) = schedule.peers(local, k);
            let tag = schedule.tag(k);
            if let (_, Err(e)) = self.charge_send(members[to], tag, hop.sent) {
                self.send_failed(to, tag, e);
            }
            let Some(Arrival { at, poisoned, len }) = hop.arrival else {
                shared.exec.await_abort(self.world_rank())
            };
            if let Err(e) = self.charge_recv(members[from], tag, at, poisoned, len) {
                self.recv_failed(from, tag, e);
            }
        }
        debug_assert_eq!(
            self.clock().to_bits(),
            outcome.finish.to_bits(),
            "rank {}: the replay left the clock the board resolved",
            self.world_rank()
        );
        outcome.parts
    }
}

/// A collective that meets on its communicator's board (see
/// [`crate::exec`]) instead of parking once per message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Meet {
    /// [`Proc::all_to_all`].
    AllToAll,
    /// [`Proc::all_gather`].
    AllGather,
}

impl Meet {
    /// How deadlock reports name the collective.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Meet::AllToAll => "all_to_all",
            Meet::AllGather => "all_gather",
        }
    }
}

/// What one member brings to a board.
pub(crate) struct Deposit {
    pub(crate) meet: Meet,
    /// The member's clock on entry.
    clock: f64,
    /// [`Meet::AllToAll`]: the encoded part for each member (its own slot
    /// empty); [`Meet::AllGather`]: its one encoded value.
    parts: Vec<Vec<u8>>,
    /// Its next link sequence number toward each member, when sends draw
    /// link faults (empty otherwise).
    link_seq: Vec<u64>,
}

/// What a board hands one member back.
pub(crate) struct Outcome {
    /// The member's steps of the schedule, as far as it gets: all of them,
    /// or up to the one whose send fails, whose receive is poisoned, or
    /// whose sender stopped before it.
    hops: Vec<Hop>,
    /// The member's clock after its last step, for the replay to check.
    finish: f64,
    /// [`Meet::AllToAll`]: what each member addressed to this one (the own
    /// slot empty); [`Meet::AllGather`]: every member's value, one copy
    /// shared by all of them.
    parts: Arc<Vec<Vec<u8>>>,
}

/// One step of a member's schedule: it sends `sent` bytes, then receives.
struct Hop {
    sent: usize,
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
}

impl Schedule {
    fn of(meet: Meet, p: usize) -> Schedule {
        match (meet, is_pow2(p)) {
            (Meet::AllToAll, true) => Schedule::Xor(p),
            (Meet::AllToAll, false) => Schedule::Shift(p),
            (Meet::AllGather, true) => Schedule::Doubling(p),
            (Meet::AllGather, false) => Schedule::Ring(p),
        }
    }

    fn steps(self) -> usize {
        match self {
            Schedule::Xor(p) | Schedule::Shift(p) | Schedule::Ring(p) => p - 1,
            Schedule::Doubling(p) => log2ceil(p) as usize,
        }
    }

    /// Whom rank `r` sends to and receives from in step `k`.
    fn peers(self, r: usize, k: usize) -> (usize, usize) {
        match self {
            Schedule::Xor(_) => (r ^ (k + 1), r ^ (k + 1)),
            Schedule::Shift(p) => ((r + k + 1) % p, (r + p - k - 1) % p),
            Schedule::Doubling(_) => (partner(r, k as u32), partner(r, k as u32)),
            Schedule::Ring(p) => ((r + 1) % p, (r + p - 1) % p),
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
        }
    }
}

/// Resolve a full board: run the collective's schedule over every member
/// in virtual time — the same `message_cost`, link-fault draws and
/// `max(clock, arrival)` receive rule a message gets, step by step (a
/// step's sends depend only on the step before) — and hand each member
/// its hops and its bytes.
fn resolve(shared: &SharedMachine, members: &[usize], mut deposits: Vec<Deposit>) -> Vec<Outcome> {
    let p = members.len();
    let meet = deposits[0].meet;
    let schedule = Schedule::of(meet, p);
    // What rank `s` sends in step `k`. An all-gather message is the
    // `Vec<(u64, Vec<u8>)>` of the values the sender holds: 8 bytes of
    // count, then 16 of framing per value.
    let framed: Vec<usize> = match meet {
        Meet::AllToAll => Vec::new(),
        Meet::AllGather => deposits.iter().map(|d| 16 + d.parts[0].len()).collect(),
    };
    let sent_len = |deposits: &[Deposit], s: usize, k: usize| -> usize {
        match schedule {
            Schedule::Xor(_) | Schedule::Shift(_) => {
                deposits[s].parts[schedule.peers(s, k).0].len()
            }
            // The aligned block of 2^k ranks the sender has gathered.
            Schedule::Doubling(_) => {
                let block = s & !((1 << k) - 1);
                8 + framed[block..block + (1 << k)].iter().sum::<usize>()
            }
            // The value that started `k` ranks back.
            Schedule::Ring(p) => 8 + framed[(s + p - k) % p],
        }
    };
    let link = &shared.faults.link;
    let link_faults = shared.link_faults();
    let mut clock: Vec<f64> = deposits.iter().map(|d| d.clock).collect();
    let mut hops: Vec<Vec<Hop>> = (0..p)
        .map(|_| Vec::with_capacity(schedule.steps()))
        .collect();
    let mut running = vec![true; p];
    // Per sender, the step's message: arrival, poisoned, length.
    let mut sent: Vec<Option<Arrival>> = vec![None; p];
    for k in 0..schedule.steps() {
        for s in 0..p {
            sent[s] = None;
            if !running[s] {
                continue;
            }
            let to = schedule.peers(s, k).0;
            let len = sent_len(&deposits, s, k);
            let transit = if link_faults {
                let seq = &mut deposits[s].link_seq[to];
                *seq += 1;
                shared.faults.transit(members[s], members[to], *seq - 1)
            } else {
                Transit::CLEAN
            };
            let cost = shared.cost.network.message_cost(len);
            let (after, at) = transit.times(clock[s], cost, link);
            clock[s] = after;
            hops[s].push(Hop { sent: len, arrival: None });
            sent[s] = Some(Arrival { at, poisoned: transit.failed, len });
            running[s] = !transit.failed;
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
                    running[r] = !poisoned;
                }
                None => running[r] = false,
            }
        }
    }
    let parts: Vec<Arc<Vec<Vec<u8>>>> = match meet {
        Meet::AllToAll => (0..p)
            .map(|d| {
                let column = deposits.iter_mut().map(|dep| std::mem::take(&mut dep.parts[d]));
                Arc::new(column.collect())
            })
            .collect(),
        Meet::AllGather => {
            let values = deposits.iter_mut().map(|d| d.parts.pop().expect("value"));
            let values = Arc::new(values.collect());
            vec![values; p]
        }
    };
    hops.into_iter()
        .zip(clock)
        .zip(parts)
        .map(|((hops, finish), parts)| Outcome { hops, finish, parts })
        .collect()
}
