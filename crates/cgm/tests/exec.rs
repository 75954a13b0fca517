//! The executor, through the public API only: pinned virtual times on a
//! body that touches every class of blocking point (p = 1 … 1024), the
//! structural deadlock report (at a receive and at a collective's board),
//! a rank's panic ending the run by its root cause, and the host's
//! schedule never leaking into an observable. No
//! test here sets a timeout — there is none to set.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::time::Duration;

use pdc_cgm::{Cluster, Counters, Group, MachineConfig, OpKind, Proc};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A body that exercises every class of blocking point: point-to-point
/// sends/receives (ring), a barrier, collectives, compute charges and the
/// asynchronous I/O device (submit / overlap / wait / sync).
fn workload(proc: &mut Proc) -> (u64, Vec<u64>) {
    proc.charge(OpKind::Misc, 50 * (proc.rank() as u64 + 3));
    let p = proc.nprocs();
    let from_prev: u64 = if p > 1 {
        let next = (proc.rank() + 1) % p;
        let prev = (proc.rank() + p - 1) % p;
        proc.send(next, 0x10, &(proc.rank() as u64 * 13 + 1));
        proc.recv(prev, 0x10)
    } else {
        13
    };
    let ticket = proc.io_device_submit(4096 * (proc.rank() + 1), true);
    proc.charge(OpKind::Misc, 200);
    proc.barrier();
    proc.io_device_wait(ticket);
    let total: u64 = proc.allreduce(from_prev, |a, b| a + b);
    let gathered = proc.all_gather(proc.rank() as u64 + total);
    proc.io_device_sync();
    (total, gathered.to_vec())
}

/// `(p, finish-time bits)` of `workload` as both executors of commit
/// 5343ca5 produced them; its closing all-gather and device sync leave
/// every rank on the same instant.
const WORKLOAD_FINISH_BITS: [(usize, u64); 5] = [
    (1, 0x3f85_597e_2097_4f3c),
    (2, 0x3f86_727e_fea6_44ff),
    (3, 0x3f87_8b7f_dcb5_3ac0),
    (5, 0x3f89_7e3b_6f41_d738),
    (8, 0x3f8b_e13c_c659_ec03),
];

/// Makespan bits of five rounds of `workload` at p = 1024, same provenance.
const WORKLOAD_X5_P1024_BITS: u64 = 0x4001_71bb_829c_646d;

#[test]
fn workload_finish_bits_are_pinned() {
    for (p, want) in WORKLOAD_FINISH_BITS {
        let out = Cluster::new(p).run(workload);
        for s in &out.stats {
            let got = s.finish_time.to_bits();
            assert_eq!(
                got, want,
                "p={p} rank {}: finish bits moved to {got:#x}",
                s.rank
            );
        }
    }
}

#[test]
fn workload_runs_at_p_1024() {
    let p = 1024u64;
    let out = Cluster::new(p as usize).run(|proc| {
        let mut last = workload(proc);
        for _ in 1..5 {
            last = workload(proc);
        }
        last
    });
    let total = 13 * p * (p - 1) / 2 + p;
    for (total_seen, gathered) in &out.results {
        assert_eq!(*total_seen, total);
        assert!(gathered.iter().copied().eq((0..p).map(|r| r + total)));
    }
    let got = out.makespan().to_bits();
    assert_eq!(
        got, WORKLOAD_X5_P1024_BITS,
        "makespan bits moved to {got:#x}"
    );
}

fn run_panic_message<F>(p: usize, config: MachineConfig, f: F) -> String
where
    F: Fn(&mut Proc) + Sync,
{
    let out = catch_unwind(AssertUnwindSafe(|| {
        Cluster::with_config(p, config).run(f);
    }));
    let payload = out.expect_err("run must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload must be a string")
}

/// The report's `rank R <- recv(...)` lines.
fn blocked_lines(report: &str) -> Vec<&str> {
    report
        .lines()
        .filter(|l| l.starts_with("  rank "))
        .collect()
}

#[test]
fn structural_detector_names_wait_for_cycle() {
    // Three ranks each receive from their successor before anyone sends:
    // a textbook wait-for cycle 0 -> 1 -> 2 -> 0, reported the moment the
    // last of them parks, naming every rank with what it was waiting on.
    let msg = run_panic_message(3, MachineConfig::default(), |proc| {
        let next = (proc.rank() + 1) % proc.nprocs();
        let _: u64 = proc.recv(next, 0x42);
    });
    assert!(msg.contains("structural deadlock"), "{msg}");
    assert!(msg.contains("rank 0 <- recv(src=1, tag=0x42)"), "{msg}");
    assert!(msg.contains("rank 1 <- recv(src=2, tag=0x42)"), "{msg}");
    assert!(msg.contains("rank 2 <- recv(src=0, tag=0x42)"), "{msg}");
    assert!(msg.contains("wait-for cycle: 0 -> 1 -> 2 -> 0"), "{msg}");
    assert!(msg.contains("no wall-clock timeout"), "{msg}");
}

#[test]
fn structural_detector_flags_wait_on_finished_rank() {
    // Rank 0 waits for a message rank 1 never sends; rank 1 just returns.
    // No cycle — the report must say the peer already finished.
    let msg = run_panic_message(2, MachineConfig::default(), |proc| {
        if proc.rank() == 0 {
            let _: u64 = proc.recv(1, 0x99);
        }
    });
    assert!(msg.contains("structural deadlock"), "{msg}");
    assert!(msg.contains("rank 0 <- recv(src=1, tag=0x99)"), "{msg}");
    assert!(msg.contains("(which already finished)"), "{msg}");
    assert!(msg.contains("no wait-for cycle"), "{msg}");
}

#[test]
fn tag_mismatch_report_shows_the_cycle_and_the_unmatched_messages() {
    // Each rank sends with one tag and listens for another: the report
    // shows the message that did arrive next to the one being waited for.
    let msg = run_panic_message(2, MachineConfig::default(), |proc| {
        let peer = 1 - proc.rank();
        proc.send(peer, 0x50, &7u64);
        let _: u64 = proc.recv(peer, 0x51);
    });
    assert!(msg.contains("wait-for cycle: 0 -> 1 -> 0"), "{msg}");
    assert!(
        msg.contains(
            "rank 0 <- recv(src=1, tag=0x51); 1 unmatched in its mailbox: (src=1, tag=0x50)"
        ),
        "{msg}"
    );
    assert!(
        msg.contains(
            "rank 1 <- recv(src=0, tag=0x51); 1 unmatched in its mailbox: (src=0, tag=0x50)"
        ),
        "{msg}"
    );
}

#[test]
fn a_1024_rank_cycle_is_one_short_report() {
    let p = 1024;
    let msg = run_panic_message(p, MachineConfig::default(), |proc| {
        let next = (proc.rank() + 1) % proc.nprocs();
        let _: u64 = proc.recv(next, 0x42);
    });
    assert_eq!(msg.matches("structural deadlock").count(), 1, "{msg}");
    assert!(msg.contains("1024 rank(s) blocked"), "{msg}");
    assert_eq!(blocked_lines(&msg).len(), 16, "{msg}");
    assert!(msg.contains("… and 1008 more"), "{msg}");
    let cycles: Vec<&str> = msg
        .lines()
        .filter(|l| l.contains("wait-for cycle: "))
        .collect();
    assert_eq!(cycles.len(), 1, "{msg}");
    let names: Vec<&str> = cycles[0]
        .trim()
        .trim_start_matches("wait-for cycle: ")
        .split(" -> ")
        .collect();
    let want: Vec<String> = (0..=p).map(|r| (r % p).to_string()).collect();
    assert_eq!(names, want, "{msg}");
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

#[test]
fn a_deadlock_inside_a_subgroup_names_world_ranks() {
    // The upper half deadlocks on group-local ranks 0 -> 1 -> 2 -> 0, which
    // are world ranks 3, 4, 5; the lower half finishes.
    let msg = run_panic_message(6, MachineConfig::default(), |proc| {
        let group = halves(proc);
        let upper = proc.rank() >= 3;
        proc.scoped(&group, |sub| {
            if upper {
                let next = (sub.rank() + 1) % sub.nprocs();
                let _: u64 = sub.recv(next, 0x42);
            } else {
                sub.barrier();
            }
        });
    });
    assert!(msg.contains("rank 3 <- recv(src=4, tag=0x42)"), "{msg}");
    assert!(msg.contains("wait-for cycle: 3 -> 4 -> 5 -> 3"), "{msg}");
    assert_eq!(blocked_lines(&msg).len(), 3, "{msg}");
}

#[test]
fn a_rank_that_skips_an_all_to_all_is_named_by_the_board() {
    // Rank 2 of 4 returns without entering the all-to-all the others wait
    // in: the report names the collective and the rank that never came.
    let msg = run_panic_message(4, MachineConfig::default(), |proc| {
        if proc.rank() != 2 {
            let _ = proc.all_to_all(vec![proc.rank() as u64; proc.nprocs()]);
        }
    });
    assert!(msg.contains("structural deadlock"), "{msg}");
    assert!(msg.contains("3 rank(s) blocked"), "{msg}");
    for r in [0, 1, 3] {
        let line = format!(
            "  rank {r} <- all_to_all(4 ranks); never arrived: 2 (which already finished)\n"
        );
        assert!(msg.contains(&line), "want {line:?} in {msg}");
    }
    assert!(msg.contains("no wait-for cycle"), "{msg}");
}

#[test]
fn a_board_wait_inside_a_subgroup_names_world_ranks_and_closes_a_cycle() {
    // In the upper half (world ranks 3, 4, 5) world rank 4 receives from
    // world rank 3 instead of entering the all-to-all that 3 and 5 wait in:
    // 3 waits on 4 at the board and 4 waits on 3, a cycle. The lower half
    // finishes its own all-to-all.
    let msg = run_panic_message(6, MachineConfig::default(), |proc| {
        let group = halves(proc);
        let world = proc.rank();
        proc.scoped(&group, |sub| {
            if world == 4 {
                let _: u64 = sub.recv(0, 0x42);
            } else {
                let _ = sub.all_to_all(vec![world as u64; sub.nprocs()]);
            }
        });
    });
    assert_eq!(blocked_lines(&msg).len(), 3, "{msg}");
    for r in [3, 5] {
        let line = format!("  rank {r} <- all_to_all(3 ranks); never arrived: 4\n");
        assert!(msg.contains(&line), "want {line:?} in {msg}");
    }
    assert!(msg.contains("  rank 4 <- recv(src=3, tag=0x42)\n"), "{msg}");
    assert!(msg.contains("wait-for cycle: 3 -> 4 -> 3"), "{msg}");
}

#[test]
fn a_panic_while_peers_wait_at_the_board_returns_the_root_cause() {
    // Ranks 0, 2 and 3 are parked at the all-to-all's board when rank 1
    // panics instead of arriving.
    let msg = run_panic_message(4, MachineConfig::default(), |proc| {
        if proc.rank() == 1 {
            panic!("rank-one exploded before the board");
        }
        let _ = proc.all_to_all(vec![0u8; proc.nprocs()]);
    });
    assert!(
        msg.contains("virtual processor 1 panicked: rank-one exploded before the board"),
        "{msg}"
    );
}

#[test]
fn members_that_meet_for_different_collectives_are_refused() {
    let msg = run_panic_message(2, MachineConfig::default(), |proc| {
        if proc.rank() == 0 {
            let _ = proc.all_to_all(vec![0u8; 2]);
        } else {
            let _ = proc.all_gather(0u8);
        }
    });
    assert!(
        msg.contains("while its communicator's other members are in"),
        "{msg}"
    );
}

#[test]
fn members_that_name_different_roots_are_refused_with_both_roots() {
    // World rank 2 names root 1 where ranks 0 and 1 name root 0: whoever
    // reaches the board second is refused, and the message names both
    // calls, so neither root is resolved silently.
    for which in ["broadcast", "reduce", "gather"] {
        let msg = run_panic_message(3, MachineConfig::default(), |proc| {
            let root = usize::from(proc.rank() == 2);
            match which {
                "broadcast" => drop(proc.broadcast(root, (proc.rank() == root).then_some(7u64))),
                "reduce" => drop(proc.reduce(root, 1u64, |a, b| a + b)),
                _ => drop(proc.gather(root, 1u64)),
            }
        });
        for root in [0, 1] {
            let call = format!("{which}(root {root})");
            assert!(msg.contains(&call), "{which}: want {call:?} in {msg}");
        }
        assert!(msg.contains("while its communicator's other members are in"), "{msg}");
    }
}

#[test]
fn a_rank_that_skips_a_barrier_is_named_by_the_board() {
    // In the upper half (world ranks 3, 4, 5) world rank 4 returns without
    // entering the barrier that 3 and 5 wait in; the lower half passes its
    // own. The report names the barrier and the world rank that never came.
    let msg = run_panic_message(6, MachineConfig::default(), |proc| {
        let group = halves(proc);
        let world = proc.rank();
        proc.scoped(&group, |sub| {
            if world != 4 {
                sub.barrier();
            }
        });
    });
    assert_eq!(blocked_lines(&msg).len(), 2, "{msg}");
    for r in [3, 5] {
        let line =
            format!("  rank {r} <- barrier(3 ranks); never arrived: 4 (which already finished)\n");
        assert!(msg.contains(&line), "want {line:?} in {msg}");
    }
    assert!(msg.contains("no wait-for cycle"), "{msg}");
}

#[test]
fn rank_panic_with_parked_peers_returns_the_root_cause() {
    // Rank 1 panics with its own message while ranks 0 and 2 are parked in
    // a barrier. The run must end — nothing will ever wake them otherwise —
    // and with rank 1's payload, not the unwind of the woken bystanders.
    let msg = run_panic_message(3, MachineConfig::default(), |proc| {
        if proc.rank() == 1 {
            panic!("rank-one exploded deliberately");
        }
        proc.barrier();
    });
    assert!(
        msg.contains("virtual processor 1 panicked: rank-one exploded deliberately"),
        "{msg}"
    );
}

#[test]
fn panic_inside_a_subgroup_ends_the_other_subgroup_too() {
    // World rank 1 panics inside its scoped region while its own group is
    // in an allreduce and the other group is busy with collectives of its
    // own, then parks in a world barrier the lower half never reaches.
    let msg = run_panic_message(6, MachineConfig::default(), |proc| {
        let group = halves(proc);
        let world = proc.rank();
        proc.scoped(&group, |sub| {
            if world == 1 {
                panic!("subgroup member exploded deliberately");
            }
            for round in 0..50u64 {
                let _: u64 = sub.allreduce(round, |a, b| a + b);
            }
        });
        proc.barrier();
    });
    assert!(
        msg.contains("virtual processor 1 panicked: subgroup member exploded deliberately"),
        "{msg}"
    );
}

#[test]
fn ranks_that_park_after_the_panic_are_stopped_too() {
    // The bystanders are still running when rank 1 panics and only reach
    // their barrier afterwards: the abort must be seen by a rank on its
    // way *into* a park, not only by one woken from it. (Whichever way a
    // bystander happens to lose the race, the outcome is the same.)
    let exploded = AtomicBool::new(false);
    let msg = run_panic_message(3, MachineConfig::default(), |proc| {
        if proc.rank() == 1 {
            exploded.store(true, SeqCst);
            panic!("rank-one exploded early");
        }
        while !exploded.load(SeqCst) {
            std::thread::yield_now();
        }
        for _ in 0..1_000 {
            std::thread::yield_now();
        }
        proc.barrier();
    });
    assert!(
        msg.contains("virtual processor 1 panicked: rank-one exploded early"),
        "{msg}"
    );
}

#[test]
fn a_span_left_open_at_run_end_is_reported_while_peers_are_parked() {
    // Rank 1 returns with a span open: closing its statistics panics on the
    // carrier, after the body, with ranks 0 and 2 parked on it.
    let config = MachineConfig {
        spans: true,
        ..MachineConfig::default()
    };
    let msg = run_panic_message(3, config, |proc| {
        if proc.rank() == 1 {
            let _leaked = proc.span("leaky", &[]);
            return;
        }
        proc.barrier();
    });
    assert!(msg.contains("virtual processor 1 panicked"), "{msg}");
    assert!(
        msg.contains("1 span(s) still open at run end (leaky)"),
        "{msg}"
    );
}

/// One rank of a message-dense body: `send`/`recv` in the shapes the
/// collectives' schedules take — a ring, a dissemination barrier and a
/// pairwise exchange — then an all-to-all and an all-gather, which meet on
/// a board. Before every send, every receive and every board the rank
/// lets `perturb` disturb the host's schedule. Returns an FNV-1a digest of
/// every payload in the order the program received it.
fn dense_body(proc: &mut Proc, mut perturb: impl FnMut()) -> u64 {
    let (rank, p) = (proc.rank(), proc.nprocs());
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut exchange = |proc: &mut Proc, to: usize, from: usize, tag: u32| {
        perturb();
        proc.charge(OpKind::Misc, 10 + (rank as u64 * 7 + u64::from(tag)) % 50);
        proc.send(to, tag, &(rank as u64 * 1_000 + u64::from(tag)));
        perturb();
        let got: u64 = proc.recv(from, tag);
        for byte in got.to_le_bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for lap in 0..3 {
        exchange(proc, (rank + 1) % p, (rank + p - 1) % p, 0x100 + lap);
    }
    let mut d = 1;
    while d < p {
        exchange(proc, (rank + d) % p, (rank + p - d) % p, 0x200 + d as u32);
        d <<= 1;
    }
    for k in 1..p {
        exchange(proc, (rank + k) % p, (rank + p - k) % p, 0x300 + k as u32);
    }
    for round in 0..2u64 {
        perturb();
        proc.charge(OpKind::Misc, 10 + (rank as u64 * 11 + round) % 40);
        let parts: Vec<u64> = (0..p as u64)
            .map(|j| rank as u64 * 1_000 + j + round)
            .collect();
        let parts = proc.all_to_all(parts);
        perturb();
        let values = proc.all_gather(parts.iter().sum::<u64>());
        for got in parts.into_iter().chain(values.iter().copied()) {
            for byte in got.to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    digest
}

#[test]
fn a_perturbed_schedule_never_leaks_and_never_looks_like_a_deadlock() {
    // 32 seeds × 4 machine sizes: each rank draws from its own stream, before
    // every send and receive, one of nothing / yield / sleep up to 200 µs.
    // Finish bits, counters and received payloads must be those of the
    // undisturbed run, and a run that completes at all was never mistaken
    // for a deadlock.
    for p in [2usize, 3, 8, 64] {
        let calm = Cluster::new(p).run(|proc| dense_body(proc, || {}));
        let observe = |out: &pdc_cgm::RunOutput<u64>| -> Vec<(u64, Counters, u64)> {
            out.stats
                .iter()
                .zip(&out.results)
                .map(|(s, &digest)| (s.finish_time.to_bits(), s.counters.clone(), digest))
                .collect()
        };
        let want = observe(&calm);
        for seed in 0..32u64 {
            let out = Cluster::new(p).run(|proc| {
                let mut rng = StdRng::seed_from_u64(seed << 8 | proc.rank() as u64);
                dense_body(proc, || match rng.random_range(0..3u8) {
                    0 => {}
                    1 => std::thread::yield_now(),
                    _ => std::thread::sleep(Duration::from_micros(rng.random_range(0..=200))),
                })
            });
            let got = observe(&out);
            for rank in 0..p {
                assert_eq!(
                    got[rank], want[rank],
                    "seed {seed} p={p} rank {rank}: schedule leaked"
                );
            }
        }
    }
}

#[test]
fn a_seeded_cycle_among_finishing_ranks_is_named_exactly() {
    // k random ranks of a random machine receive from each other in a ring
    // before anyone sends; the others trade a message along their own ring
    // and finish. The report must name that cycle, those ranks, and nobody
    // else.
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = rng.random_range(3..=12usize);
        let k = rng.random_range(2..=p);
        let cycle = rand::seq::index::sample(&mut rng, p, k).into_vec();
        let rest: Vec<usize> = (0..p).filter(|r| !cycle.contains(r)).collect();
        let msg = run_panic_message(p, MachineConfig::default(), |proc| {
            let me = proc.rank();
            if let Some(i) = cycle.iter().position(|&r| r == me) {
                let _: u64 = proc.recv(cycle[(i + 1) % k], 0x42);
            } else if rest.len() > 1 {
                let i = rest
                    .iter()
                    .position(|&r| r == me)
                    .expect("a rank is in one of the two");
                proc.send(rest[(i + 1) % rest.len()], 0x43, &(me as u64));
                let _: u64 = proc.recv(rest[(i + rest.len() - 1) % rest.len()], 0x43);
            }
        });
        let start = cycle
            .iter()
            .position(|r| r == cycle.iter().min().expect("k >= 2"))
            .expect("min");
        let names: Vec<String> = (0..=k)
            .map(|i| cycle[(start + i) % k].to_string())
            .collect();
        let want = format!("wait-for cycle: {}\n", names.join(" -> "));
        assert!(msg.contains(&want), "seed {seed}: want {want:?} in {msg}");
        assert!(
            msg.contains(&format!("{k} rank(s) blocked")),
            "seed {seed}: {msg}"
        );
        assert!(!msg.contains("already finished"), "seed {seed}: {msg}");
        for (i, &r) in cycle.iter().enumerate() {
            let line = format!("  rank {r} <- recv(src={}, tag=0x42)\n", cycle[(i + 1) % k]);
            assert!(msg.contains(&line), "seed {seed}: want {line:?} in {msg}");
        }
        for &r in &rest {
            assert!(
                !msg.contains(&format!("  rank {r} <- ")),
                "seed {seed}: finished rank {r} listed: {msg}"
            );
        }
    }
}
