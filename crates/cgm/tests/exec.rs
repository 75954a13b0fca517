//! Event-driven executor suite: bit-identity against the thread backend,
//! large-`p` multiplexing on a narrow admission pool, and the structural
//! deadlock detector (global quiescence -> wait-for-cycle report with no
//! wall-clock timeout anywhere). Also covers the thread backend's scaled
//! wall-clock detector naming every blocked rank.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use pdc_cgm::{Backend, Cluster, MachineConfig, OpKind, Proc};

fn event_config(workers: usize) -> MachineConfig {
    MachineConfig {
        backend: Backend::Event,
        event_workers: workers,
        ..MachineConfig::default()
    }
}

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
    (total, gathered)
}

#[test]
fn event_backend_bit_identical_to_thread() {
    for p in [1usize, 2, 3, 5, 8] {
        let thread = Cluster::new(p).run(workload);
        // Any admission width must give the same bits: fully serialized
        // (workers=1), narrow (2), and auto (0 = host parallelism).
        for workers in [1usize, 2, 0] {
            let event = Cluster::with_config(p, event_config(workers)).run(workload);
            assert_eq!(event.results, thread.results, "p={p} workers={workers}");
            for rank in 0..p {
                assert_eq!(
                    event.stats[rank].finish_time.to_bits(),
                    thread.stats[rank].finish_time.to_bits(),
                    "p={p} workers={workers} rank={rank}: finish bits diverge"
                );
                assert_eq!(
                    event.stats[rank].counters, thread.stats[rank].counters,
                    "p={p} workers={workers} rank={rank}: counters diverge"
                );
            }
        }
    }
}

#[test]
fn event_backend_runs_many_ranks_on_one_worker() {
    // p far beyond any sane thread-per-rank oversubscription, multiplexed
    // on a single admission slot: must complete, and the virtual times
    // must still be the deterministic ones (spot-check against default
    // backend at the same p).
    let p = 256;
    let body = |proc: &mut Proc| {
        let next = (proc.rank() + 1) % proc.nprocs();
        let prev = (proc.rank() + proc.nprocs() - 1) % proc.nprocs();
        proc.send(next, 7, &(proc.rank() as u64));
        let got: u64 = proc.recv(prev, 7);
        proc.allreduce(got, |a, b| a + b)
    };
    let event = Cluster::with_config(p, event_config(1)).run(body);
    let expect: u64 = (0..p as u64).sum();
    assert!(event.results.iter().all(|&v| v == expect));
    let thread = Cluster::new(p).run(body);
    for rank in 0..p {
        assert_eq!(
            event.stats[rank].finish_time.to_bits(),
            thread.stats[rank].finish_time.to_bits(),
            "rank={rank}"
        );
    }
}

fn run_panic_message<F>(p: usize, config: MachineConfig, f: F) -> String
where
    F: Fn(&mut Proc) -> () + Sync,
{
    let out = catch_unwind(AssertUnwindSafe(|| {
        Cluster::with_config(p, config).run(f);
    }));
    let payload = out.expect_err("run must panic");
    payload
        .downcast_ref::<String>()
        .map(|s| s.clone())
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload must be a string")
}

#[test]
fn structural_detector_names_wait_for_cycle() {
    // Three ranks each receive from their successor before anyone sends:
    // a textbook wait-for cycle 0 -> 1 -> 2 -> 0. The event backend must
    // report it structurally (instantly — no timeout to wait out) and the
    // diagnostic must name every rank with what it was waiting on.
    let msg = run_panic_message(3, event_config(0), |proc| {
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
    let msg = run_panic_message(2, event_config(0), |proc| {
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
fn event_backend_propagates_rank_panic_not_bystander_abort() {
    // Rank 1 panics with its own message while ranks 0 and 2 are parked in
    // a barrier. The driver must surface rank 1's payload, not the
    // "aborted" unwind of the parked bystanders — and must not hang.
    let msg = run_panic_message(3, event_config(0), |proc| {
        if proc.rank() == 1 {
            panic!("rank-one exploded deliberately");
        }
        proc.barrier();
    });
    assert!(msg.contains("rank-one exploded deliberately"), "{msg}");
    assert!(msg.contains("virtual processor 1 panicked"), "{msg}");
}

#[test]
fn thread_backend_timeout_names_every_blocked_rank() {
    // Satellite: the wall-clock detector's panic must say *which* ranks
    // were blocked on what, not just "timed out".
    // Both ranks time out together, so each must still be on the wait
    // board when the other snapshots it; loop so a regression that only
    // loses the race sometimes cannot hide.
    for round in 0..50 {
        let config = MachineConfig {
            recv_timeout: Duration::from_millis(50),
            ..MachineConfig::default()
        };
        let msg = run_panic_message(2, config, |proc| {
            // Both ranks wait on each other with mismatched tags: a deadlock
            // the wall-clock detector must catch and describe.
            let peer = 1 - proc.rank();
            let tag = 0x50 + proc.rank() as u32;
            let _: u64 = proc.recv(peer, tag);
        });
        assert!(msg.contains("receive timed out"), "round {round}: {msg}");
        assert!(msg.contains("Ranks blocked at timeout"), "round {round}: {msg}");
        assert!(msg.contains("rank 0 <- recv(src=1, tag=0x50)"), "round {round}: {msg}");
        assert!(msg.contains("rank 1 <- recv(src=0, tag=0x51)"), "round {round}: {msg}");
        assert!(msg.contains("event backend"), "round {round}: {msg}");
    }
}

#[test]
fn event_backend_handles_scoped_subgroups() {
    // train_in_group-style scoping: disjoint subgroups doing collectives
    // concurrently under the event executor, identical to thread bits.
    use pdc_cgm::Group;
    let p = 6;
    let body = |proc: &mut Proc| {
        let half = proc.nprocs() / 2;
        let members: Vec<usize> = if proc.rank() < half {
            (0..half).collect()
        } else {
            (half..proc.nprocs()).collect()
        };
        let group = Group::new(members);
        proc.scoped(&group, |sub| {
            let s: u64 = sub.allreduce(sub.rank() as u64 + 1, |a, b| a + b);
            sub.barrier();
            s
        })
    };
    let thread = Cluster::new(p).run(body);
    let event = Cluster::with_config(p, event_config(2)).run(body);
    assert_eq!(event.results, thread.results);
    for rank in 0..p {
        assert_eq!(
            event.stats[rank].finish_time.to_bits(),
            thread.stats[rank].finish_time.to_bits(),
            "rank={rank}"
        );
    }
}
