//! The asynchronous I/O device timeline: deterministic completion times,
//! overlap/stall accounting, and the exact per-rank time identity.

use pdc_cgm::{Cluster, DiskFaults, FaultPlan, MachineConfig, OpKind};

/// Seconds one cold device request of `bytes` takes under `cfg`'s model.
fn service(cfg: &MachineConfig, bytes: usize) -> f64 {
    cfg.cost.disk.transfer_cost(bytes)
}

#[test]
fn request_fully_overlapped_by_compute_costs_nothing() {
    let cfg = MachineConfig::default();
    let svc = service(&cfg, 1 << 20);
    let out = Cluster::with_config(1, cfg).run(move |proc| {
        let t = proc.io_device_submit(1 << 20, true);
        assert!((t.service - svc).abs() < 1e-12);
        assert!((t.completion - svc).abs() < 1e-12);
        // Compute for much longer than the request's service time…
        while proc.clock() < svc * 3.0 {
            proc.charge(OpKind::Misc, 1_000_000);
        }
        let before = proc.clock();
        proc.io_device_wait(t);
        // …so the wait is free: the request completed in the background.
        assert_eq!(proc.clock(), before);
        assert_eq!(proc.counters.io_stall_time, 0.0);
        assert!((proc.counters.io_overlapped_time - svc).abs() < 1e-12);
        assert!((proc.counters.io_device_time - svc).abs() < 1e-12);
    });
    let s = &out.stats[0];
    assert_eq!(s.counters.io_stall_time, 0.0);
    assert_eq!(s.counters.disk_reads, 1);
}

#[test]
fn immediate_wait_stalls_for_the_full_service_time() {
    let cfg = MachineConfig::default();
    let svc = service(&cfg, 1 << 16);
    let out = Cluster::with_config(1, cfg).run(move |proc| {
        let t = proc.io_device_submit(1 << 16, true);
        proc.io_device_wait(t);
        assert!((proc.clock() - svc).abs() < 1e-12);
    });
    let s = &out.stats[0];
    assert!((s.counters.io_stall_time - svc).abs() < 1e-12);
    assert_eq!(s.counters.io_overlapped_time, 0.0);
    assert!((s.finish_time - svc).abs() < 1e-12);
}

#[test]
fn device_serializes_back_to_back_requests() {
    let cfg = MachineConfig::default();
    let svc = service(&cfg, 1 << 16);
    Cluster::with_config(1, cfg).run(move |proc| {
        let a = proc.io_device_submit(1 << 16, true);
        let b = proc.io_device_submit(1 << 16, false);
        // Second request starts only when the first completes.
        assert!((a.completion - svc).abs() < 1e-12);
        assert!((b.completion - 2.0 * svc).abs() < 1e-12);
        assert!((proc.io_device_free() - 2.0 * svc).abs() < 1e-12);
        // The device cannot start before it is asked: after syncing, a new
        // request starts at the compute clock, not at zero.
        proc.io_device_sync();
        proc.charge(OpKind::Misc, 50_000_000);
        let now = proc.clock();
        let c = proc.io_device_submit(1 << 16, true);
        assert!((c.completion - (now + svc)).abs() < 1e-12);
        proc.io_device_sync();
    });
}

#[test]
fn partial_overlap_splits_into_stall_plus_overlap() {
    let cfg = MachineConfig::default();
    let svc = service(&cfg, 1 << 22);
    let out = Cluster::with_config(1, cfg).run(move |proc| {
        let t = proc.io_device_submit(1 << 22, true);
        // Compute for roughly half the service time, then wait.
        let target = svc * 0.5;
        while proc.clock() < target {
            proc.charge(OpKind::Misc, 100_000);
        }
        let computed = proc.clock();
        proc.io_device_wait(t);
        let stall = svc - computed;
        assert!((proc.counters.io_stall_time - stall).abs() < 1e-9);
        assert!((proc.counters.io_overlapped_time - computed).abs() < 1e-9);
    });
    // Exact identity: compute + comm + io + fault + io_stall + idle == finish.
    let s = &out.stats[0];
    let sum = s.counters.compute_time
        + s.counters.comm_time
        + s.counters.io_time
        + s.counters.fault_time
        + s.counters.io_stall_time
        + s.idle_time();
    assert!(
        (sum - s.finish_time).abs() < 1e-9,
        "accounting identity violated: {sum} != {}",
        s.finish_time
    );
}

#[test]
fn async_read_faults_retry_on_the_device_and_keep_the_identity() {
    let mut cfg = MachineConfig::default();
    cfg.faults = FaultPlan {
        seed: 7,
        disk: DiskFaults {
            read_error_prob: 0.4,
            ..DiskFaults::default()
        },
        ..FaultPlan::default()
    };
    let out = Cluster::with_config(2, cfg).run(|proc| {
        let mut tickets = Vec::new();
        for _ in 0..32 {
            // Permanent failures (all retries exhausted) are possible at
            // p=0.4 and simply yield no ticket; retries still accrue.
            if let Ok(t) = proc.try_io_device_submit(1 << 16, true) {
                tickets.push(t);
            }
            proc.charge(OpKind::Misc, 1_000);
        }
        for t in tickets {
            proc.io_device_wait(t);
        }
    });
    let retries: u64 = out.stats.iter().map(|s| s.counters.disk_retries).sum();
    assert!(retries > 0, "p=0.4 over 64 requests must retry at least once");
    for s in &out.stats {
        // Retry penalties ride on the device timeline (service), not on
        // fault_time, so the identity holds without a fault term from them.
        let sum = s.counters.compute_time
            + s.counters.comm_time
            + s.counters.io_time
            + s.counters.fault_time
            + s.counters.io_stall_time
            + s.idle_time();
        assert!(
            (sum - s.finish_time).abs() < 1e-9,
            "rank {}: accounting identity violated under async faults",
            s.rank
        );
        assert!(s.counters.io_device_time > 0.0);
    }
}

#[test]
fn device_timeline_is_deterministic() {
    let run = || {
        Cluster::new(2).run(|proc| {
            let mut last = 0.0;
            for i in 0..10 {
                let t = proc.io_device_submit(4096 * (i + 1), i % 2 == 0);
                proc.charge(OpKind::Misc, 10_000);
                if i % 3 == 0 {
                    proc.io_device_wait(t);
                }
                last = t.completion;
            }
            proc.io_device_sync();
            last
        })
    };
    let a = run();
    let b = run();
    for (x, y) in a.stats.iter().zip(&b.stats) {
        assert_eq!(x.finish_time.to_bits(), y.finish_time.to_bits());
    }
    assert_eq!(a.results, b.results);
}

#[test]
fn critical_path_follows_device_busy_chains() {
    // The makespan is bounded by two back-to-back device requests whose
    // combined service dwarfs the interleaved compute, so the critical-path
    // walk must chase the exposed stall through the busy chain back to the
    // first submission and report the run as io-bound.
    let cfg = MachineConfig {
        record: true,
        spans: true,
        ..MachineConfig::default()
    };
    let out = Cluster::with_config(1, cfg).run(|proc| {
        proc.in_span("load", &[], |p| {
            let a = p.io_device_submit(64 << 20, true);
            let b = p.io_device_submit(64 << 20, true);
            p.charge(OpKind::Misc, 1_000);
            p.io_device_wait(a);
            p.io_device_wait(b);
        });
        proc.charge(OpKind::Misc, 1_000);
    });
    let cp = pdc_cgm::critical_path(&out.stats);
    assert!(cp.classes.io > 0.0, "device stalls must attribute to io");
    assert_eq!(cp.classes.verdict(), "io-bound");
    assert!(
        cp.classes.io > cp.classes.compute,
        "io {} must dominate compute {}",
        cp.classes.io,
        cp.classes.compute
    );
    let line = cp.render();
    assert!(line.contains("verdict: io-bound"), "{line}");
    // The chain reaches back through the busy period: total attributed
    // seconds must cover nearly the whole makespan (only the pre-submission
    // compute may sit outside the stall).
    assert!(cp.classes.total() > 0.9 * cp.makespan);
}
