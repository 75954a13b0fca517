//! `all_to_all` and `all_gather` meet on their communicator's board: the
//! last member to arrive resolves the whole message schedule in virtual
//! time and every member replays its own side of it. These tests pin that
//! the replay is indistinguishable from the schedule sent as real messages:
//! a reference copy of each collective, written here with public
//! `send`/`recv` and the collectives' own tags and spans, must produce the
//! same results, finish bits, counters, spans, gauges and `.evg` bytes —
//! at every machine size, in the world and in concurrent subgroups, with
//! and without link faults.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pdc_cgm::proc::RESERVED_TAG_BASE;
use pdc_cgm::{Cluster, EventGraph, FaultPlan, Group, MachineConfig, OpKind, Proc, Wire};

const TAG_ALLGATHER: u32 = RESERVED_TAG_BASE + 6;
const TAG_ALLTOALL: u32 = RESERVED_TAG_BASE + 7;

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
                proc.all_gather(value)
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

fn observed(
    config: &MachineConfig,
    p: usize,
    split: bool,
    board: bool,
) -> (Vec<Got>, Vec<pdc_cgm::ProcStats>) {
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
                let (got, stats) = observed(&config, p, split, true);
                let (want, reference) = observed(&config, p, split, false);
                let at = format!("p={p} split={split} faults={}", !config.faults.is_inert());
                assert_eq!(got, want, "{at}: results");
                for (s, r) in stats.iter().zip(&reference) {
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
                    retries += s.counters.link_retries;
                    delays += s.counters.link_delays;
                }
                let graph = EventGraph::from_stats(&stats);
                graph.validate().unwrap_or_else(|e| panic!("{at}: {e}"));
                assert!(
                    graph.to_bytes() == EventGraph::from_stats(&reference).to_bytes(),
                    "{at}: .evg bytes differ"
                );
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
