//! A tour of the simulated coarse-grained machine itself: point-to-point
//! messaging, the collectives of Table 1 and the virtual clock.
//!
//! ```sh
//! cargo run --release --example cluster_playground
//! ```

use pdc_cgm::trace::timeline;
use pdc_cgm::{replay, Cluster, CostOverride, EventGraph, MachineConfig, OpKind};

fn main() {
    let cfg = MachineConfig::default();
    println!(
        "machine: alpha = {:.0} us, beta = {:.2} ns/byte, disk {} MB/s (+{} ms seek)",
        cfg.cost.network.alpha * 1e6,
        cfg.cost.network.beta * 1e9,
        cfg.cost.disk.bandwidth / 1e6,
        cfg.cost.disk.access_latency * 1e3,
    );

    for p in [2usize, 4, 8, 16] {
        let cluster = Cluster::new(p);
        let out = cluster.run(|proc| {
            // Unbalanced local compute...
            proc.charge(OpKind::RecordScan, 10_000 * (proc.rank() as u64 + 1));
            let before_barrier = proc.clock();
            // ...then a barrier, a reduction and an all-gather.
            proc.barrier();
            let sum: u64 = proc.allreduce(proc.rank() as u64, |a, b| a + b);
            let all = proc.all_gather(vec![proc.rank() as u32; 512]);
            assert_eq!(all.len(), proc.nprocs());
            assert_eq!(sum, (p * (p - 1) / 2) as u64);
            (before_barrier, proc.clock())
        });
        let spread_before: f64 = {
            let clocks: Vec<f64> = out.results.iter().map(|&(b, _)| b).collect();
            clocks.iter().cloned().fold(f64::MIN, f64::max)
                - clocks.iter().cloned().fold(f64::MAX, f64::min)
        };
        println!(
            "p = {p:>2}: skew before barrier = {:.1} ms, makespan = {:.3} ms, \
             {} messages, imbalance {:.4}",
            spread_before * 1e3,
            out.makespan() * 1e3,
            out.total_counters().messages_sent,
            out.imbalance(),
        );
    }

    // Event recording: the run records its causal event DAG, and replaying
    // it yields the timestamps — here as a coarse Gantt chart of one
    // unbalanced run (C = compute, M = messages/waiting, D = disk,
    // . = idle).
    println!("\nreplayed timeline of an unbalanced run (p = 4):");
    let recorded = Cluster::with_config(
        4,
        MachineConfig {
            record: true,
            ..MachineConfig::default()
        },
    );
    let out = recorded.run(|proc| {
        proc.charge(OpKind::RecordScan, 200_000 * (proc.rank() as u64 + 1));
        proc.disk_write(((proc.rank() + 1) * 4) << 20);
        proc.barrier();
        let _ = proc.all_gather(vec![0u8; 64 * 1024]);
    });
    let graph = EventGraph::from_stats(&out.stats);
    let view = replay(&graph, &CostOverride::identity());
    for rank in 0..graph.nprocs {
        println!("  p{rank}: {}", timeline(&graph, &view, rank, out.makespan(), 60));
    }

    // Collective scaling: one all-gather, growing message size.
    println!("\nall-gather cost vs message size (p = 16):");
    let cluster = Cluster::new(16);
    for bytes in [64usize, 1024, 16 * 1024, 256 * 1024] {
        let out = cluster.run(|proc| {
            let payload = vec![proc.rank() as u64; bytes / 8];
            let _ = proc.all_gather(payload);
            proc.clock()
        });
        println!("  m = {bytes:>7} B -> {:.3} ms", out.makespan() * 1e3);
    }
}
