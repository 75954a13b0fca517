//! `all_to_all`, `all_gather`, and on a power of two `allreduce` and
//! `reduce_scatter_blocks`, meet on their communicator's board: the last
//! member to arrive resolves the whole message schedule in virtual time,
//! moving the typed values and running the combines, and every member
//! replays its own side of it. These tests pin that the replay is
//! indistinguishable from the schedule sent as real messages: a reference
//! copy of each collective, written here with public `send`/`recv` (and
//! `send_poison`) and the collectives' own tags and spans, must produce the
//! same results, finish bits, counters, spans, gauges and `.evg` bytes —
//! at every machine size, in the world and in concurrent subgroups, with
//! and without link faults, and for the two fallible schedules with links
//! that fail for good. An `all_gather` also hands every member of a
//! communicator the same allocation: the values are never copied per
//! member.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use pdc_cgm::proc::RESERVED_TAG_BASE;
use pdc_cgm::wire::DecodeResult;
use pdc_cgm::{
    Cluster, EventGraph, FaultError, FaultPlan, Group, MachineConfig, OpKind, Proc, ProcStats, Wire,
};

const TAG_ALLREDUCE: u32 = RESERVED_TAG_BASE + 3;
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

/// `try_allreduce` as messages on a power-of-two machine: recursive
/// doubling, lower rank's operand first; after a fault the rank sends
/// poison on every remaining edge and returns its first fault.
fn reference_try_allreduce<T: Wire>(
    proc: &mut Proc,
    value: T,
    combine: impl Fn(T, T) -> T,
) -> Result<T, FaultError> {
    let bytes = span_bytes(proc, &value);
    let span = proc.span("cgm.allreduce", &[("bytes", bytes)]);
    let (me, p) = (proc.rank(), proc.nprocs());
    assert!(p.is_power_of_two());
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

/// `try_reduce_scatter_blocks` as messages on a power-of-two machine:
/// recursive halving, every round sending the half of the blocks bound for
/// the peer's side and combining the other half with the peer's, lower
/// rank's operand first; after a fault the rank sends poison on every
/// remaining edge and returns its first fault.
fn reference_try_reduce_scatter<T: Wire>(
    proc: &mut Proc,
    blocks: Vec<Vec<T>>,
    combine: impl Fn(T, T) -> T,
) -> Result<Vec<T>, FaultError> {
    let (me, p) = (proc.rank(), proc.nprocs());
    assert!(p.is_power_of_two() && blocks.len() == p);
    if p == 1 {
        let span = proc.span("cgm.reduce_scatter.fanin", &[]);
        proc.span_end(span);
        return Ok(blocks.into_iter().next().unwrap());
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
    // bystander's unwind or a deadlock report.
    for p in [3usize, 4, 7, 8] {
        for seed in 0..8u64 {
            let mut faults = FaultPlan::with_seed(seed);
            faults.link.drop_prob = 0.3;
            faults.link.max_retries = 0;
            let config = MachineConfig {
                faults,
                ..MachineConfig::default()
            };
            let out = catch_unwind(AssertUnwindSafe(|| {
                Cluster::with_config(p, config).run(|proc| body(proc, true))
            }));
            let payload = out.expect_err("a 30% unretried drop rate must fail a send");
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
