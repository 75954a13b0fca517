//! Every collective meets on its communicator's board: the last member to
//! arrive resolves the whole message schedule in virtual time, moving the
//! typed values and running the combines, and every member replays its own
//! side of it. These tests pin that the replay is indistinguishable from
//! the schedule sent as real messages: a reference copy of each
//! collective, written here with public `send`/`recv` (and `send_poison`)
//! and the collectives' own tags and spans, must produce the same results,
//! finish bits, counters, spans, gauges and `.evg` bytes — at every machine
//! size, from roots other than 0, in the world and in concurrent
//! subgroups, with and without link faults, and for the fallible schedules
//! with links that fail for good. An `all_gather` also hands every member
//! of a communicator the same allocation: the values are never copied per
//! member.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use pdc_cgm::proc::RESERVED_TAG_BASE;
use pdc_cgm::wire::DecodeResult;
use pdc_cgm::{
    Cluster, EventGraph, FaultError, FaultPlan, Group, MachineConfig, OpKind, Proc, ProcStats, Wire,
};

const TAG_BARRIER: u32 = RESERVED_TAG_BASE;
const TAG_BCAST: u32 = RESERVED_TAG_BASE + 1;
const TAG_REDUCE: u32 = RESERVED_TAG_BASE + 2;
const TAG_ALLREDUCE: u32 = RESERVED_TAG_BASE + 3;
const TAG_SCAN: u32 = RESERVED_TAG_BASE + 4;
const TAG_GATHER: u32 = RESERVED_TAG_BASE + 5;
const TAG_ALLGATHER: u32 = RESERVED_TAG_BASE + 6;
const TAG_ALLTOALL: u32 = RESERVED_TAG_BASE + 7;
const TAG_REDUCE_SCATTER: u32 = RESERVED_TAG_BASE + 12;

const SIZES: [usize; 8] = [1, 2, 3, 4, 5, 7, 8, 16];

fn span_bytes<T: Wire>(proc: &Proc, value: &T) -> i64 {
    if proc.spans_enabled() {
        value.to_bytes().len() as i64
    } else {
        0
    }
}

/// `⌈log2 p⌉`: the steps of the tree and dissemination schedules.
fn log2ceil(p: usize) -> u32 {
    usize::BITS - (p - 1).leading_zeros()
}

/// `try_barrier` as messages: dissemination, every round an empty message
/// to `r + 2^k` and one from `r - 2^k`; poison after a fault.
fn reference_try_barrier(proc: &mut Proc) -> Result<(), FaultError> {
    let span = proc.span("cgm.barrier", &[]);
    let (me, p) = (proc.rank(), proc.nprocs());
    let mut fault: Option<FaultError> = None;
    for k in 0..log2ceil(p) {
        let d = 1usize << k;
        let tag = TAG_BARRIER + (k << 8);
        if fault.is_some() {
            proc.send_poison((me + d) % p, tag);
        } else if let Err(e) = proc.try_send_bytes((me + d) % p, tag, Vec::new()) {
            fault = Some(e);
        }
        if let Err(e) = proc.try_recv_bytes((me + p - d) % p, tag) {
            fault.get_or_insert(e);
        }
    }
    proc.span_end(span);
    fault.map_or(Ok(()), Err)
}

/// The broadcast tree from `root` as messages, high bit first: the root
/// starts with `state` (its encoded value, or the fault that leaves it
/// nothing to send), every other rank receives once and forwards down its
/// subtree; poison after a fault.
fn reference_bcast(
    proc: &mut Proc,
    root: usize,
    mut state: Option<Result<Vec<u8>, FaultError>>,
) -> Result<Vec<u8>, FaultError> {
    let p = proc.nprocs();
    let rel = (proc.rank() + p - root) % p;
    for i in (0..log2ceil(p)).rev() {
        let mask = 1usize << i;
        let tag = TAG_BCAST + (i << 8);
        if rel & (mask - 1) != 0 {
            continue;
        }
        if rel & mask != 0 {
            state = Some(proc.try_recv_bytes((rel - mask + root) % p, tag));
        } else if rel + mask < p {
            let dst = (rel + mask + root) % p;
            match state.as_ref().expect("a rank forwards only what it received") {
                Ok(bytes) => {
                    if let Err(e) = proc.try_send_bytes(dst, tag, bytes.clone()) {
                        state = Some(Err(e));
                    }
                }
                Err(_) => proc.send_poison(dst, tag),
            }
        }
    }
    state.expect("every rank receives")
}

fn reference_try_broadcast<T: Wire>(
    proc: &mut Proc,
    root: usize,
    value: Option<T>,
) -> Result<T, FaultError> {
    let (state, span) = match value {
        Some(v) => {
            let bytes = span_bytes(proc, &v);
            let span = proc.span("cgm.broadcast", &[("root", root as i64), ("bytes", bytes)]);
            (Some(Ok(v.to_bytes())), span)
        }
        None => (None, proc.span("cgm.broadcast", &[("root", root as i64)])),
    };
    let out = reference_bcast(proc, root, state);
    proc.span_end(span);
    out.map(|b| T::from_bytes(&b).expect("decode"))
}

/// The reduce tree to `root` as messages, low bit first: receive from each
/// child and combine, own operand first, then send the partial (or poison)
/// to the parent.
fn reference_reduce<T: Wire>(
    proc: &mut Proc,
    root: usize,
    value: T,
    combine: &impl Fn(T, T) -> T,
) -> Result<Option<T>, FaultError> {
    let p = proc.nprocs();
    let rel = (proc.rank() + p - root) % p;
    let mut acc: Result<T, FaultError> = Ok(value);
    for i in 0..log2ceil(p) {
        let mask = 1usize << i;
        let tag = TAG_REDUCE + (i << 8);
        if rel & mask != 0 {
            let dst = (rel - mask + root) % p;
            return match acc {
                Ok(v) => proc.try_send(dst, tag, &v).map(|()| None),
                Err(e) => {
                    proc.send_poison(dst, tag);
                    Err(e)
                }
            };
        }
        if rel + mask < p {
            let other = proc.try_recv::<T>((rel + mask + root) % p, tag);
            acc = match (acc, other) {
                (Ok(a), Ok(b)) => Ok(combine(a, b)),
                (Err(e), _) | (Ok(_), Err(e)) => Err(e),
            };
        }
    }
    acc.map(Some)
}

fn reference_try_reduce<T: Wire>(
    proc: &mut Proc,
    root: usize,
    value: T,
    combine: &impl Fn(T, T) -> T,
) -> Result<Option<T>, FaultError> {
    let bytes = span_bytes(proc, &value);
    let span = proc.span("cgm.reduce", &[("root", root as i64), ("bytes", bytes)]);
    let out = reference_reduce(proc, root, value, combine);
    proc.span_end(span);
    out
}

/// `scan` as messages: Hillis–Steele, the received partial first.
fn reference_scan<T: Wire + Clone>(proc: &mut Proc, value: T, combine: &impl Fn(T, T) -> T) -> T {
    let bytes = span_bytes(proc, &value);
    let span = proc.span("cgm.scan", &[("bytes", bytes)]);
    let (me, p) = (proc.rank(), proc.nprocs());
    let mut acc = value;
    for k in 0..log2ceil(p) {
        let d = 1usize << k;
        let tag = TAG_SCAN + (k << 8);
        if me + d < p {
            proc.send(me + d, tag, &acc);
        }
        if me >= d {
            let other: T = proc.recv(me - d, tag);
            acc = combine(other, acc);
        }
    }
    proc.span_end(span);
    acc
}

/// `exscan` as messages: an inclusive scan, then each rank's result to the
/// next rank up.
fn reference_exscan<T: Wire + Clone>(
    proc: &mut Proc,
    value: T,
    identity: T,
    combine: &impl Fn(T, T) -> T,
) -> T {
    let bytes = span_bytes(proc, &value);
    let span = proc.span("cgm.exscan", &[("bytes", bytes)]);
    let inclusive = reference_scan(proc, value, combine);
    let (me, p) = (proc.rank(), proc.nprocs());
    let tag = TAG_SCAN + (31 << 8);
    if me + 1 < p {
        proc.send(me + 1, tag, &inclusive);
    }
    let out = if me == 0 { identity } else { proc.recv(me - 1, tag) };
    proc.span_end(span);
    out
}

/// `gather` as messages: the reduce tree to `root`, every message the
/// `Vec<(rank, encoded value)>` of the sender's subtree.
fn reference_gather<T: Wire>(proc: &mut Proc, root: usize, value: T) -> Option<Vec<T>> {
    let bytes = span_bytes(proc, &value);
    let span = proc.span("cgm.gather", &[("root", root as i64), ("bytes", bytes)]);
    let (me, p) = (proc.rank(), proc.nprocs());
    let rel = (me + p - root) % p;
    let mut acc: Vec<(u64, Vec<u8>)> = vec![(me as u64, value.to_bytes())];
    let mut sent = false;
    for i in 0..log2ceil(p) {
        let mask = 1usize << i;
        let tag = TAG_GATHER + (i << 8);
        if rel & mask != 0 {
            proc.send((rel - mask + root) % p, tag, &acc);
            sent = true;
            break;
        }
        if rel + mask < p {
            let mut other: Vec<(u64, Vec<u8>)> = proc.recv((rel + mask + root) % p, tag);
            acc.append(&mut other);
        }
    }
    proc.span_end(span);
    (!sent).then(|| {
        acc.sort_by_key(|&(rank, _)| rank);
        acc.iter().map(|(_, b)| T::from_bytes(b).expect("decode")).collect()
    })
}

/// `all_to_all` as messages: pairwise XOR exchange on a power-of-two
/// machine, the shifted ring otherwise; the own part never moves.
fn reference_all_to_all<T: Wire>(proc: &mut Proc, parts: Vec<T>) -> Vec<T> {
    let bytes = span_bytes(proc, &parts);
    let span = proc.span("cgm.all_to_all", &[("bytes", bytes)]);
    let (me, p) = (proc.rank(), proc.nprocs());
    let mut parts: Vec<Option<T>> = parts.into_iter().map(Some).collect();
    let mut slots: Vec<Option<T>> = (0..p).map(|_| None).collect();
    slots[me] = parts[me].take();
    for k in 1..p {
        let (to, from) = if p.is_power_of_two() {
            (me ^ k, me ^ k)
        } else {
            ((me + k) % p, (me + p - k) % p)
        };
        let tag = TAG_ALLTOALL + ((k as u32 & 0xFFFF) << 8);
        let outgoing = parts[to].take().expect("each part is sent once");
        proc.send(to, tag, &outgoing);
        slots[from] = Some(proc.recv(from, tag));
    }
    proc.span_end(span);
    slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

/// `all_gather` as messages: recursive doubling on a power-of-two machine,
/// the ring otherwise, every message a `Vec<(rank, encoded value)>`.
fn reference_all_gather<T: Wire>(proc: &mut Proc, value: T) -> Vec<T> {
    let bytes = span_bytes(proc, &value);
    let span = proc.span("cgm.all_gather", &[("bytes", bytes)]);
    let (me, p) = (proc.rank(), proc.nprocs());
    let mut acc: Vec<(u64, Vec<u8>)> = vec![(me as u64, value.to_bytes())];
    if p.is_power_of_two() {
        let mut d = 0u32;
        while 1usize << d < p {
            let peer = me ^ (1 << d);
            let tag = TAG_ALLGATHER + (d << 8);
            proc.send(peer, tag, &acc);
            let mut other: Vec<(u64, Vec<u8>)> = proc.recv(peer, tag);
            acc.append(&mut other);
            d += 1;
        }
    } else {
        let (next, prev) = ((me + 1) % p, (me + p - 1) % p);
        let mut forward = acc.clone();
        for i in 0..p - 1 {
            let tag = TAG_ALLGATHER + ((i as u32 & 0xFF) << 8);
            proc.send(next, tag, &forward);
            let received: Vec<(u64, Vec<u8>)> = proc.recv(prev, tag);
            acc.extend(received.iter().cloned());
            forward = received;
        }
    }
    proc.span_end(span);
    acc.sort_by_key(|&(rank, _)| rank);
    acc.iter()
        .map(|(_, b)| T::from_bytes(b).expect("decode"))
        .collect()
}

/// `try_allreduce` as messages: on a power-of-two machine recursive
/// doubling, lower rank's operand first; after a fault the rank sends
/// poison on every remaining edge and returns its first fault. On any other
/// machine a reduce to rank 0, then a broadcast; a failure anywhere poisons
/// rank 0, which then poisons everyone.
fn reference_try_allreduce<T: Wire>(
    proc: &mut Proc,
    value: T,
    combine: impl Fn(T, T) -> T,
) -> Result<T, FaultError> {
    let bytes = span_bytes(proc, &value);
    let span = proc.span("cgm.allreduce", &[("bytes", bytes)]);
    let (me, p) = (proc.rank(), proc.nprocs());
    if !p.is_power_of_two() {
        let out = match reference_try_reduce(proc, 0, value, &combine) {
            Ok(Some(v)) => reference_try_broadcast(proc, 0, Some(v)),
            Err(e) if me == 0 => {
                let _ = reference_bcast(proc, 0, Some(Err(e)));
                Err(e)
            }
            reduced => {
                let bc = reference_try_broadcast::<T>(proc, 0, None);
                reduced.and(bc)
            }
        };
        proc.span_end(span);
        return out;
    }
    let mut acc: Result<T, FaultError> = Ok(value);
    let mut d = 0u32;
    while 1usize << d < p {
        let peer = me ^ (1 << d);
        let tag = TAG_ALLREDUCE + (d << 8);
        let sent = match &acc {
            Ok(v) => proc.try_send(peer, tag, v),
            Err(_) => {
                proc.send_poison(peer, tag);
                Ok(())
            }
        };
        let other = proc.try_recv::<T>(peer, tag);
        acc = match (acc, sent, other) {
            (Ok(a), Ok(()), Ok(b)) => Ok(if me < peer {
                combine(a, b)
            } else {
                combine(b, a)
            }),
            (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => Err(e),
        };
        d += 1;
    }
    proc.span_end(span);
    acc
}

/// `try_reduce_scatter_blocks` as messages: on a power-of-two machine
/// recursive halving, every round sending the half of the blocks bound for
/// the peer's side and combining the other half with the peer's, lower
/// rank's operand first; after a fault the rank sends poison on every
/// remaining edge and returns its first fault. On any other machine the
/// fan-in and scatter of [`reference_fanin_scatter`].
fn reference_try_reduce_scatter<T: Wire>(
    proc: &mut Proc,
    blocks: Vec<Vec<T>>,
    combine: impl Fn(T, T) -> T,
) -> Result<Vec<T>, FaultError> {
    let (me, p) = (proc.rank(), proc.nprocs());
    assert_eq!(blocks.len(), p);
    if p == 1 || !p.is_power_of_two() {
        let span = proc.span("cgm.reduce_scatter.fanin", &[]);
        let out = reference_fanin_scatter(proc, blocks, combine);
        proc.span_end(span);
        return out;
    }
    let span = proc.span("cgm.reduce_scatter.halving", &[]);
    let mut entries: Vec<(usize, Vec<T>)> = blocks.into_iter().enumerate().collect();
    let mut fault: Option<FaultError> = None;
    let mut i = 0u32;
    while 1usize << i < p {
        let mask = p >> (i + 1);
        let peer = me ^ mask;
        let (keep, send): (Vec<_>, Vec<_>) = entries
            .into_iter()
            .partition(|(dst, _)| dst & mask == me & mask);
        let tag = TAG_REDUCE_SCATTER + (i << 8);
        if fault.is_some() {
            proc.send_poison(peer, tag);
        } else {
            let payload: Vec<Vec<T>> = send.into_iter().map(|(_, v)| v).collect();
            if let Err(e) = proc.try_send(peer, tag, &payload) {
                fault = Some(e);
            }
        }
        entries = match proc.try_recv::<Vec<Vec<T>>>(peer, tag) {
            Ok(other) if fault.is_none() => keep
                .into_iter()
                .zip(other)
                .map(|((dst, mine), theirs)| {
                    let (a, b) = if me < peer {
                        (mine, theirs)
                    } else {
                        (theirs, mine)
                    };
                    (
                        dst,
                        a.into_iter().zip(b).map(|(x, y)| combine(x, y)).collect(),
                    )
                })
                .collect(),
            Ok(_) => keep,
            Err(e) => {
                fault.get_or_insert(e);
                keep
            }
        };
        i += 1;
    }
    proc.span_end(span);
    match fault {
        Some(e) => Err(e),
        None => Ok(entries.pop().expect("own block").1),
    }
}

/// The whole payloads reduced to rank 0 (no span of their own), then rank
/// 0's block `j` sent to rank `j`; a failure anywhere poisons rank 0, which
/// then poisons everyone.
fn reference_fanin_scatter<T: Wire>(
    proc: &mut Proc,
    blocks: Vec<Vec<T>>,
    combine: impl Fn(T, T) -> T,
) -> Result<Vec<T>, FaultError> {
    let p = proc.nprocs();
    let merged = reference_reduce(proc, 0, blocks, &|a: Vec<Vec<T>>, b: Vec<Vec<T>>| {
        a.into_iter()
            .zip(b)
            .map(|(x, y)| x.into_iter().zip(y).map(|(x, y)| combine(x, y)).collect())
            .collect()
    });
    if proc.rank() != 0 {
        let scattered = proc.try_recv::<Vec<T>>(0, TAG_REDUCE_SCATTER);
        return merged.and(scattered);
    }
    match merged {
        Ok(merged) => {
            let mut merged = merged.expect("rank 0 holds the fan-in result");
            let mut fault: Option<FaultError> = None;
            for (j, block) in merged.drain(1..).enumerate() {
                if fault.is_some() {
                    proc.send_poison(j + 1, TAG_REDUCE_SCATTER);
                } else if let Err(e) = proc.try_send(j + 1, TAG_REDUCE_SCATTER, &block) {
                    fault = Some(e);
                }
            }
            fault.map_or(Ok(merged.pop().expect("own block")), Err)
        }
        Err(e) => {
            for j in 1..p {
                proc.send_poison(j, TAG_REDUCE_SCATTER);
            }
            Err(e)
        }
    }
}

/// What one rank got back from two rounds of both collectives.
type Got = Vec<(Vec<Vec<u32>>, Vec<Vec<u32>>)>;

/// Two rounds of an all-to-all then an all-gather, with entry clocks
/// skewed differently before each call and parts of uneven length (some
/// empty), through the board or through the reference.
fn body(proc: &mut Proc, board: bool) -> Got {
    let (r, p) = (proc.rank(), proc.nprocs());
    (0..2)
        .map(|round| {
            proc.charge(OpKind::Misc, 100 * ((r * r + round) % 7 + 1) as u64);
            let parts: Vec<Vec<u32>> = (0..p)
                .map(|j| vec![(1000 * round + 100 * r + j) as u32; (r * 7 + j * 3 + round) % 5])
                .collect();
            let a = if board {
                proc.all_to_all(parts)
            } else {
                reference_all_to_all(proc, parts)
            };
            proc.charge(OpKind::Misc, 50 * (p - r + round) as u64);
            let value = vec![(10 * r + round) as u32; (r * 5 + round) % 4 + 1];
            let g = if board {
                proc.all_gather(value).to_vec()
            } else {
                reference_all_gather(proc, value)
            };
            (a, g)
        })
        .collect()
}

/// Ranks `0..half` and `half..p` as two communicators.
fn halves(proc: &Proc) -> Group {
    let half = proc.nprocs() / 2;
    if proc.rank() < half {
        Group::new((0..half).collect())
    } else {
        Group::new((half..proc.nprocs()).collect())
    }
}

fn observed<R: Send>(
    config: &MachineConfig,
    p: usize,
    split: bool,
    board: bool,
    body: fn(&mut Proc, bool) -> R,
) -> (Vec<R>, Vec<ProcStats>) {
    let out = Cluster::with_config(p, config.clone()).run(|proc| {
        if split {
            let group = halves(proc);
            proc.scoped(&group, |sub| body(sub, board))
        } else {
            body(proc, board)
        }
    });
    (out.results, out.stats)
}

/// Everything a rank observes of a run but its result: finish bits,
/// counters, spans and gauges per rank, and the run's `.evg` bytes.
fn assert_same_run(at: &str, stats: &[ProcStats], reference: &[ProcStats]) {
    for (s, r) in stats.iter().zip(reference) {
        let rank = s.rank;
        assert_eq!(
            s.finish_time.to_bits(),
            r.finish_time.to_bits(),
            "{at} rank {rank}: finish"
        );
        assert_eq!(s.counters, r.counters, "{at} rank {rank}: counters");
        assert_eq!(s.spans, r.spans, "{at} rank {rank}: spans");
        assert_eq!(s.gauges, r.gauges, "{at} rank {rank}: gauge points");
        assert_eq!(
            pdc_cgm::resolve_series(&s.gauges),
            pdc_cgm::resolve_series(&r.gauges),
            "{at} rank {rank}: gauge series"
        );
    }
    let graph = EventGraph::from_stats(stats);
    graph.validate().unwrap_or_else(|e| panic!("{at}: {e}"));
    assert!(
        graph.to_bytes() == EventGraph::from_stats(reference).to_bytes(),
        "{at}: .evg bytes differ"
    );
}

fn link_plan() -> FaultPlan {
    let mut plan = FaultPlan::with_seed(5);
    plan.link.drop_prob = 0.2;
    plan.link.delay_prob = 0.3;
    plan.link.max_retries = 12;
    plan
}

#[test]
fn the_board_replays_exactly_what_the_messages_would_do() {
    let mut retries = 0;
    let mut delays = 0;
    for faults in [FaultPlan::default(), link_plan()] {
        let config = MachineConfig {
            spans: true,
            gauges: true,
            record: true,
            faults,
            ..MachineConfig::default()
        };
        for p in SIZES {
            for split in [false, true].into_iter().filter(|&s| !s || p >= 2) {
                let (got, stats) = observed(&config, p, split, true, body);
                let (want, reference) = observed(&config, p, split, false, body);
                let at = format!("p={p} split={split} faults={}", !config.faults.is_inert());
                assert_eq!(got, want, "{at}: results");
                assert_same_run(&at, &stats, &reference);
                for s in &stats {
                    retries += s.counters.link_retries;
                    delays += s.counters.link_delays;
                }
            }
        }
    }
    assert!(
        retries > 0 && delays > 0,
        "the link plan must drop and delay ({retries}, {delays})"
    );
}

#[test]
fn a_link_that_fails_inside_a_collective_ends_the_run_by_its_root_cause() {
    // Every transmission drops with probability 0.3 and none is retried,
    // so some sends fail outright; their receivers take poison, and ranks
    // whose sender stopped earlier wait for the abort. The run must end —
    // with a failed send or a poisoned receive as its cause, never a
    // bystander's unwind or a deadlock report. The collectives without a
    // fallible name: all-to-all and all-gather at 30 % drops, then scan,
    // exscan and gather, which send fewer messages, at 50 %.
    let runs = [3usize, 4, 7, 8].into_iter().flat_map(|p| [(p, false), (p, true)]);
    for (p, prefixes) in runs {
        for seed in 0..8u64 {
            let mut faults = FaultPlan::with_seed(seed);
            faults.link.drop_prob = if prefixes { 0.5 } else { 0.3 };
            faults.link.max_retries = 0;
            let config = MachineConfig {
                faults,
                ..MachineConfig::default()
            };
            let out = catch_unwind(AssertUnwindSafe(|| {
                Cluster::with_config(p, config).run(|proc| match prefixes {
                    false => drop(body(proc, true)),
                    true => drop(plain(proc, true)),
                })
            }));
            let payload = out.expect_err("an unretried drop rate must fail a send");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .expect("panic payload must be a string");
            assert!(
                msg.contains("virtual processor"),
                "p={p} seed={seed}: {msg}"
            );
            assert!(
                msg.contains("link failure") || msg.contains("poisoned message"),
                "p={p} seed={seed}: {msg}"
            );
        }
    }
}

/// What one rank got back from two rounds of both reductions.
type Reduced = Vec<(
    Result<Vec<u32>, FaultError>,
    Result<Vec<Vec<u32>>, FaultError>,
)>;

/// Append: a combine whose result records its operands' order, so the
/// results pin that the lower rank's operand comes first at every step.
fn append(mut a: Vec<u32>, b: Vec<u32>) -> Vec<u32> {
    a.extend(b);
    a
}

/// Two rounds of an allreduce then a reduce-scatter under their fallible
/// names, with entry clocks skewed differently before each call and
/// operands of uneven length, through the board or through the reference.
fn reductions(proc: &mut Proc, board: bool) -> Reduced {
    let (r, p) = (proc.rank(), proc.nprocs());
    (0..2u32)
        .map(|round| {
            proc.charge(
                OpKind::Misc,
                100 * ((r * r) % 7 + 1 + round as usize) as u64,
            );
            let value = vec![100 * round + r as u32; r % 3 + 1];
            let a = if board {
                proc.try_allreduce(value, append)
            } else {
                reference_try_allreduce(proc, value, append)
            };
            proc.charge(OpKind::Misc, 50 * (p - r) as u64 + u64::from(round));
            let blocks: Vec<Vec<Vec<u32>>> = (0..p)
                .map(|j| {
                    let element = vec![1000 * round + 10 * r as u32 + j as u32; (r + j) % 3];
                    vec![element; j % 2 + 1]
                })
                .collect();
            let s = if board {
                proc.try_reduce_scatter_blocks(blocks, append)
            } else {
                reference_try_reduce_scatter(proc, blocks, append)
            };
            (a, s)
        })
        .collect()
}

const POW2_SIZES: [usize; 5] = [1, 2, 4, 8, 16];

#[test]
fn the_reductions_replay_exactly_what_the_messages_would_do() {
    let mut retries = 0;
    for faults in [FaultPlan::default(), link_plan()] {
        let config = MachineConfig {
            spans: true,
            gauges: true,
            record: true,
            faults,
            ..MachineConfig::default()
        };
        for p in POW2_SIZES {
            for split in [false, true].into_iter().filter(|&s| !s || p >= 2) {
                let (got, stats) = observed(&config, p, split, true, reductions);
                let (want, reference) = observed(&config, p, split, false, reductions);
                let at = format!("p={p} split={split} faults={}", !config.faults.is_inert());
                assert_eq!(got, want, "{at}: results");
                assert_same_run(&at, &stats, &reference);
                let n = if split { p / 2 } else { p };
                // Halving combines the ranks that differ in the top bit
                // first and the bottom bit last, each time lower rank's
                // operand first: the operands end in bit-reversed order.
                let mut halving_order: Vec<usize> = (0..n).collect();
                halving_order.sort_by_key(|k| k.reverse_bits());
                for (r, rounds) in got.iter().enumerate() {
                    for (round, (a, s)) in rounds.iter().enumerate() {
                        // Doubling: every operand once, in rank order.
                        let ranks: Vec<u32> = (0..n as u32)
                            .flat_map(|k| vec![100 * round as u32 + k; k as usize % 3 + 1])
                            .collect();
                        assert_eq!(
                            a.as_ref().ok(),
                            Some(&ranks),
                            "{at} rank {r}: allreduce order"
                        );
                        let local = r % n;
                        let want: Vec<Vec<u32>> = (0..local % 2 + 1)
                            .map(|_| {
                                halving_order
                                    .iter()
                                    .flat_map(|&k| {
                                        let v = 1000 * round + 10 * k + local;
                                        vec![v as u32; (k + local) % 3]
                                    })
                                    .collect()
                            })
                            .collect();
                        assert_eq!(
                            s.as_ref().ok(),
                            Some(&want),
                            "{at} rank {r}: reduce_scatter order"
                        );
                    }
                }
                retries += stats.iter().map(|s| s.counters.link_retries).sum::<u64>();
            }
        }
    }
    assert!(retries > 0, "the link plan must drop");
}

#[test]
fn a_link_that_fails_for_good_fails_the_same_ranks_on_the_board() {
    // Every transmission drops with probability 0.3 and none is retried, so
    // sends fail outright; the fallible schedules carry poison along every
    // remaining edge. Each rank's Ok/Err — and which fault — must match the
    // messages', and so must every clock, counter, span, gauge and event.
    let mut failed = 0;
    let mut healthy = 0;
    for p in [2usize, 4, 8, 16] {
        for seed in 0..6u64 {
            let mut faults = FaultPlan::with_seed(seed);
            faults.link.drop_prob = 0.3;
            faults.link.max_retries = 0;
            let config = MachineConfig {
                spans: true,
                gauges: true,
                record: true,
                faults,
                ..MachineConfig::default()
            };
            for split in [false, true].into_iter().filter(|&s| !s || p >= 4) {
                let (got, stats) = observed(&config, p, split, true, reductions);
                let (want, reference) = observed(&config, p, split, false, reductions);
                let at = format!("p={p} seed={seed} split={split}");
                assert_eq!(got, want, "{at}: results");
                assert_same_run(&at, &stats, &reference);
                for (a, s) in got.iter().flatten() {
                    for ok in [a.is_ok(), s.is_ok()] {
                        if ok {
                            healthy += 1;
                        } else {
                            failed += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(
        failed > 0 && healthy > 0,
        "({failed} failed, {healthy} healthy)"
    );
}

/// The root of round `round` on `p` ranks: 1, then 3, where they exist.
fn root_of(round: usize, p: usize) -> usize {
    (1 + 2 * round) % p
}

/// What one rank got back from two rounds of the barrier and the rooted
/// reductions.
type Rooted = Vec<(
    Result<(), FaultError>,
    Result<Vec<u32>, FaultError>,
    Result<Option<Vec<u32>>, FaultError>,
)>;

/// Two rounds of a barrier, a broadcast and a reduce under their fallible
/// names, from a root other than 0 where there is one, with entry clocks
/// skewed differently before each call and operands of uneven length,
/// through the board or through the reference.
fn rooted(proc: &mut Proc, board: bool) -> Rooted {
    let (r, p) = (proc.rank(), proc.nprocs());
    (0..2)
        .map(|round| {
            let root = root_of(round, p);
            proc.charge(OpKind::Misc, 100 * ((r * r + round) % 7 + 1) as u64);
            let b = if board {
                proc.try_barrier()
            } else {
                reference_try_barrier(proc)
            };
            proc.charge(OpKind::Misc, 30 * ((r + 2 * round) % 5 + 1) as u64);
            let value = (r == root).then(|| vec![7 * round as u32 + 1; round + 3]);
            let c = if board {
                proc.try_broadcast(root, value)
            } else {
                reference_try_broadcast(proc, root, value)
            };
            proc.charge(OpKind::Misc, 50 * (p - r + round) as u64);
            let value = vec![100 * round as u32 + r as u32; r % 3 + 1];
            let d = if board {
                proc.try_reduce(root, value, append)
            } else {
                reference_try_reduce(proc, root, value, &append)
            };
            (b, c, d)
        })
        .collect()
}

/// What one rank got back from two rounds of the prefix combines and the
/// gather.
type Prefixes = Vec<(Vec<u32>, Vec<u32>, Option<Vec<Vec<u32>>>)>;

/// Two rounds of a scan, an exscan and a gather to a root other than 0
/// where there is one, with entry clocks skewed differently before each
/// call and operands of uneven length (some empty), through the board or
/// through the reference.
fn plain(proc: &mut Proc, board: bool) -> Prefixes {
    let (r, p) = (proc.rank(), proc.nprocs());
    (0..2)
        .map(|round| {
            proc.charge(OpKind::Misc, 100 * ((r * 3 + round) % 7 + 1) as u64);
            let value = vec![10 * round as u32 + r as u32; (r + round) % 3 + 1];
            let s = if board {
                proc.scan(value, append)
            } else {
                reference_scan(proc, value, &append)
            };
            proc.charge(OpKind::Misc, 40 * ((p - r) % 4 + round) as u64);
            let value = vec![r as u32; r % 2 + 1];
            let e = if board {
                proc.exscan(value, Vec::new(), append)
            } else {
                reference_exscan(proc, value, Vec::new(), &append)
            };
            proc.charge(OpKind::Misc, 20 * ((r + round) % 3 + 1) as u64);
            let root = root_of(round, p);
            let value = vec![r as u32; (r * 5 + round) % 4];
            let g = if board {
                proc.gather(root, value)
            } else {
                reference_gather(proc, root, value)
            };
            (s, e, g)
        })
        .collect()
}

/// World rank `w`'s rank in its communicator and that communicator's size.
fn local(w: usize, p: usize, split: bool) -> (usize, usize) {
    match (split, w < p / 2) {
        (false, _) => (w, p),
        (true, true) => (w, p / 2),
        (true, false) => (w - p / 2, p - p / 2),
    }
}

const MIXED_SIZES: [usize; 6] = [1, 2, 3, 5, 6, 8];

#[test]
fn every_collective_replays_exactly_what_its_messages_would_do() {
    let mut retries = 0;
    for faults in [FaultPlan::default(), link_plan()] {
        let config = MachineConfig {
            spans: true,
            gauges: true,
            record: true,
            faults,
            ..MachineConfig::default()
        };
        for p in MIXED_SIZES {
            for split in [false, true].into_iter().filter(|&s| !s || p >= 2) {
                let at = format!("p={p} split={split} faults={}", !config.faults.is_inert());
                let (rooted_got, stats) = observed(&config, p, split, true, rooted);
                let (want, reference) = observed(&config, p, split, false, rooted);
                assert_eq!(rooted_got, want, "{at}: rooted results");
                assert_same_run(&format!("{at} rooted"), &stats, &reference);
                let (plain_got, stats) = observed(&config, p, split, true, plain);
                let (want, reference) = observed(&config, p, split, false, plain);
                assert_eq!(plain_got, want, "{at}: plain results");
                assert_same_run(&format!("{at} plain"), &stats, &reference);
                retries += stats.iter().map(|s| s.counters.link_retries).sum::<u64>();
                let (got, stats) = observed(&config, p, split, true, reductions);
                let (want, reference) = observed(&config, p, split, false, reductions);
                assert_eq!(got, want, "{at}: reduction results");
                assert_same_run(&format!("{at} reductions"), &stats, &reference);
                // What the collectives compute, independent of either side.
                for (w, (rooted, plain)) in rooted_got.iter().zip(&plain_got).enumerate() {
                    let (l, n) = local(w, p, split);
                    for round in 0..2 {
                        let root = root_of(round, n);
                        let reduced: Vec<u32> = (0..n)
                            .map(|q| (q + root) % n)
                            .flat_map(|k| vec![100 * round as u32 + k as u32; k % 3 + 1])
                            .collect();
                        let want_rooted = (
                            Ok(()),
                            Ok(vec![7 * round as u32 + 1; round + 3]),
                            Ok((l == root).then_some(reduced)),
                        );
                        assert_eq!(rooted[round], want_rooted, "{at} rank {w} round {round}");
                        let scanned: Vec<u32> = (0..=l)
                            .flat_map(|k| vec![(10 * round + k) as u32; (k + round) % 3 + 1])
                            .collect();
                        let exscanned: Vec<u32> =
                            (0..l).flat_map(|k| vec![k as u32; k % 2 + 1]).collect();
                        let gathered =
                            (0..n).map(|k| vec![k as u32; (k * 5 + round) % 4]).collect();
                        let want_plain = (scanned, exscanned, (l == root).then_some(gathered));
                        assert_eq!(plain[round], want_plain, "{at} rank {w} round {round}");
                    }
                }
            }
        }
    }
    assert!(retries > 0, "the link plan must drop");
}

#[test]
fn a_link_that_fails_for_good_fails_the_same_ranks_in_every_fallible_collective() {
    // As for the power-of-two reductions above: each rank's Ok/Err, and
    // which fault, must match the messages' for the barrier, the rooted
    // reductions and the non-power-of-two schedules, and so must every
    // clock, counter, span, gauge and event.
    let mut failed = 0;
    let mut healthy = 0;
    let mut count = |oks: &[bool]| {
        for &ok in oks {
            if ok {
                healthy += 1;
            } else {
                failed += 1;
            }
        }
    };
    for p in [2usize, 3, 5, 6, 8] {
        for seed in 0..6u64 {
            let mut faults = FaultPlan::with_seed(seed);
            faults.link.drop_prob = 0.3;
            faults.link.max_retries = 0;
            let config = MachineConfig {
                spans: true,
                gauges: true,
                record: true,
                faults,
                ..MachineConfig::default()
            };
            for split in [false, true].into_iter().filter(|&s| !s || p >= 4) {
                let at = format!("p={p} seed={seed} split={split}");
                let (got, stats) = observed(&config, p, split, true, rooted);
                let (want, reference) = observed(&config, p, split, false, rooted);
                assert_eq!(got, want, "{at}: rooted results");
                assert_same_run(&format!("{at} rooted"), &stats, &reference);
                for (b, c, d) in got.iter().flatten() {
                    count(&[b.is_ok(), c.is_ok(), d.is_ok()]);
                }
                let (got, stats) = observed(&config, p, split, true, reductions);
                let (want, reference) = observed(&config, p, split, false, reductions);
                assert_eq!(got, want, "{at}: reduction results");
                assert_same_run(&format!("{at} reductions"), &stats, &reference);
                for (a, s) in got.iter().flatten() {
                    count(&[a.is_ok(), s.is_ok()]);
                }
            }
        }
    }
    assert!(
        failed > 0 && healthy > 0,
        "({failed} failed, {healthy} healthy)"
    );
}

/// A payload that cannot be cloned: an all-gather that copied the values
/// per member would not compile against it.
#[derive(Debug, PartialEq)]
struct Token(u64);

impl Wire for Token {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> DecodeResult<Self> {
        u64::decode(buf).map(Token)
    }
}

#[test]
fn all_gather_hands_every_member_one_shared_allocation() {
    // One rank, the ring (3) and recursive doubling (4, 64).
    for p in [1, 3, 4, 64] {
        let out = Cluster::new(p).run(|proc| proc.all_gather(Token(7 * proc.rank() as u64)));
        let first = &out.results[0];
        let want: Vec<Token> = (0..p as u64).map(|r| Token(7 * r)).collect();
        assert_eq!(first[..], want[..], "p={p}");
        for (rank, got) in out.results.iter().enumerate() {
            assert!(Arc::ptr_eq(got, first), "p={p}: rank {rank} holds its own copy");
        }
    }
    // Two concurrent communicators of 3 (ring) and 4 (doubling) members:
    // one allocation per communicator.
    let out = Cluster::new(7).run(|proc| {
        let group = halves(proc);
        proc.scoped(&group, |p| p.all_gather(Token(p.world_rank() as u64)))
    });
    let (lower, upper) = out.results.split_at(3);
    for (members, ranks) in [(lower, 0..3u64), (upper, 3..7)] {
        let want: Vec<Token> = ranks.map(Token).collect();
        assert_eq!(members[0][..], want[..]);
        assert!(members.iter().all(|got| Arc::ptr_eq(got, &members[0])));
    }
    assert!(!Arc::ptr_eq(&lower[0], &upper[0]));
}
