//! Record/replay tests: identity replays are bit-exact, recording is pure
//! observation, and cost overrides move predicted time the right way.

use std::sync::Arc;

use pdc_cgm::replay::{identity_check, replay, CostOverride};
use pdc_cgm::{Cluster, EventGraph, FaultPlan, MachineConfig, OpKind, Proc, Wire};
use proptest::prelude::*;

/// A mixed workload touching every recorded primitive: compute charges,
/// spans, synchronous disk, the async I/O device, point-to-point rings and
/// collectives. Fault-tolerant (try_* for the ring) so it survives
/// arbitrary link/disk fault plans.
fn workload(proc: &mut Proc) -> u64 {
    let rank = proc.rank();
    let p = proc.nprocs();
    let span = proc.span("test.phase", &[]);
    proc.charge(OpKind::Misc, 2_000 * (rank as u64 + 1));
    proc.charge(OpKind::RecordScan, 5_000);
    // Cold read (working set larger than the buffer cache) and a cached one.
    let _ = proc.try_disk_read_ws(1 << 16, usize::MAX);
    proc.disk_read(1 << 12);
    proc.span_end(span);

    // Overlap device service with compute, plus an immediate wait and a sync.
    if let Ok(ticket) = proc.try_io_device_submit(1 << 15, true) {
        proc.charge(OpKind::HistUpdate, 3_000);
        proc.io_device_wait(ticket);
    }
    if let Ok(ticket) = proc.try_io_device_submit(1 << 13, false) {
        proc.io_device_wait(ticket);
    }

    // Ring exchange; tolerant of permanently failed sends under faults.
    if p > 1 {
        let dst = (rank + 1) % p;
        let src = (rank + p - 1) % p;
        let _ = proc.try_send(dst, 77, &vec![rank as u64; 128]);
        let _ = proc.try_recv::<Vec<u64>>(src, 77);
    }

    let sum = proc.allreduce(rank as u64 + 1, |a, b| a + b);
    proc.disk_write(1 << 14);
    proc.io_device_sync();
    proc.charge(OpKind::Compare, 100);
    sum
}

fn config(faults: FaultPlan, record: bool) -> MachineConfig {
    MachineConfig {
        spans: true,
        record,
        faults,
        ..MachineConfig::default()
    }
}

/// Run the workload recorded and return the graph.
fn record(p: usize, faults: FaultPlan) -> EventGraph {
    let out = Cluster::with_config(p, config(faults, true)).run(workload);
    EventGraph::from_stats(&out.stats)
}

#[test]
fn recording_is_pure_observation() {
    for p in [1, 2, 4, 8] {
        let mut faults = FaultPlan::with_seed(7);
        faults.link.drop_prob = 0.02;
        faults.disk.read_error_prob = 0.02;
        let on = Cluster::with_config(p, config(faults.clone(), true)).run(workload);
        let off = Cluster::with_config(p, config(faults, false)).run(workload);
        for r in 0..p {
            assert_eq!(
                on.stats[r].finish_time.to_bits(),
                off.stats[r].finish_time.to_bits(),
                "p={p} rank {r}: recording changed the virtual clock"
            );
            assert_eq!(on.stats[r].counters, off.stats[r].counters);
        }
        assert!(on.stats.iter().any(|s| !s.events.is_empty()));
        assert!(off.stats.iter().all(|s| s.events.is_empty()));
    }
}

#[test]
fn identity_replay_bit_exact_plain_and_faulty() {
    for p in [1, 2, 4, 8] {
        identity_check(&record(p, FaultPlan::default()));

        let mut faults = FaultPlan::with_seed(11);
        faults.link.drop_prob = 0.03;
        faults.link.delay_prob = 0.05;
        faults.disk.read_error_prob = 0.03;
        faults.skew = (0..p).map(|r| 1.0 + 0.25 * r as f64).collect();
        identity_check(&record(p, faults));
    }
}

#[test]
fn identity_replay_survives_wire_roundtrip() {
    use pdc_cgm::Wire;
    let graph = record(4, FaultPlan::default());
    let back = EventGraph::from_bytes(&graph.to_bytes()).unwrap();
    assert_eq!(back, graph);
    identity_check(&back);
}

#[test]
fn overrides_move_time_the_right_way() {
    let graph = record(4, FaultPlan::default());
    let base = identity_check(&graph).makespan();

    // Free network transfer can only help; doubled compute can only hurt.
    let mut fast_net = CostOverride::identity();
    fast_net.comm_transfer = 0.0;
    assert!(replay(&graph, &fast_net).makespan() <= base);

    let mut slow_cpu = CostOverride::identity();
    slow_cpu.compute = 2.0;
    let slowed = replay(&graph, &slow_cpu);
    assert!(slowed.makespan() >= base);
    // This workload is compute-heavy enough that 2x compute must show up.
    assert!(slowed.makespan() > base);

    // Scaling a span that never opened changes nothing.
    let no_such = CostOverride::identity().with_span("does.not.exist", 3.0);
    let out = replay(&graph, &no_such);
    for (r, f) in out.finish.iter().enumerate() {
        assert_eq!(f.to_bits(), graph.finish[r].to_bits());
    }

    // Speeding up a recorded span helps, and the critical-path verdict
    // stays well-formed.
    let span_fast = CostOverride::identity().with_span("test.*", 0.5);
    let sped = replay(&graph, &span_fast);
    assert!(sped.makespan() <= base);
    let line = sped.critical.render(sped.makespan());
    assert!(line.contains("verdict:"), "{line}");
}

#[test]
fn utilization_is_a_fraction() {
    let graph = record(4, FaultPlan::default());
    let out = identity_check(&graph);
    for r in 0..4 {
        let u = out.utilization(r);
        assert!((0.0..=1.0 + 1e-12).contains(&u), "rank {r}: {u}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Identity replay is bit-exact for arbitrary fault plans and machine
    /// sizes: per-rank finish times reproduce to the bit and breakdowns to
    /// 1e-9 (asserted inside `identity_check`).
    #[test]
    fn identity_replay_bit_exact_random_faults(
        p_idx in 0usize..4,
        seed in any::<u64>(),
        drop in 0.0f64..0.04,
        delay in 0.0f64..0.08,
        delay_s in 1e-4f64..5e-3,
        disk_err in 0.0f64..0.04,
        skew_extra in 0.0f64..2.0,
        degraded in any::<bool>(),
    ) {
        let p = [1usize, 2, 4, 8][p_idx];
        let mut faults = FaultPlan::with_seed(seed);
        faults.link.drop_prob = drop;
        faults.link.delay_prob = delay;
        faults.link.delay_seconds = delay_s;
        faults.disk.read_error_prob = disk_err;
        faults.skew = (0..p).map(|r| 1.0 + skew_extra * r as f64 / p as f64).collect();
        if degraded {
            faults.disk.degraded = vec![pdc_cgm::DegradedWindow {
                start: 0.0,
                end: 0.05,
                slowdown: 3.0,
            }];
        }
        identity_check(&record(p, faults));
    }

    /// Scaling any single cost kind up never decreases the predicted
    /// finish; scaling it down never increases it.
    #[test]
    fn overrides_are_monotone(
        seed in any::<u64>(),
        knob in 0usize..7,
        up in 1.0f64..4.0,
        down in 0.1f64..1.0,
    ) {
        let mut faults = FaultPlan::with_seed(seed);
        faults.link.delay_prob = 0.05;
        faults.link.delay_seconds = 1e-3;
        let graph = Arc::new(record(4, faults));
        let base = identity_check(&graph).makespan();
        let apply = |f: f64| {
            let mut ov = CostOverride::identity();
            match knob {
                0 => ov.compute = f,
                1 => ov.comm_latency = f,
                2 => ov.comm_transfer = f,
                3 => ov.disk_seek = f,
                4 => ov.disk_transfer = f,
                5 => ov.fault = f,
                _ => ov = ov.with_op(OpKind::RecordScan, f),
            }
            replay(&graph, &ov).makespan()
        };
        prop_assert!(apply(up) >= base, "scaling up decreased finish");
        prop_assert!(apply(down) <= base, "scaling down increased finish");
    }
    /// Bytes from outside the program never panic the decoder, the
    /// validator or the replayer: arbitrary bytes, and a valid graph
    /// truncated anywhere or with any one byte changed, either fail with
    /// an error or yield a graph that validates and therefore replays.
    #[test]
    fn hostile_graph_bytes_never_panic(
        noise in proptest::collection::vec(any::<u8>(), 0..256),
        cut in any::<usize>(),
        at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut faults = FaultPlan::with_seed(11);
        faults.link.drop_prob = 0.05;
        let valid = record(3, faults).to_bytes();
        let mut mutated = valid.clone();
        mutated[at % valid.len()] ^= flip;
        // An honest version word in front of the noise gets it past the
        // version gate and into the length prefixes.
        let mut versioned = pdc_cgm::evg::EVG_VERSION.to_bytes();
        versioned.extend_from_slice(&noise);
        for bytes in [&noise[..], &versioned, &valid[..cut % valid.len()], &mutated] {
            if let Ok(graph) = EventGraph::from_untrusted(bytes) {
                let out = replay(&graph, &CostOverride::identity());
                prop_assert_eq!(out.finish.len(), graph.nprocs);
                // The views are functions of a replay: they cannot panic either.
                let _ = out.latest_end(&graph);
                if graph.nprocs > 0 {
                    let _ = pdc_cgm::trace::timeline(&graph, &out, 0, out.makespan(), 8);
                }
            }
        }
        prop_assert!(EventGraph::from_untrusted(&valid).is_ok());
    }

}
