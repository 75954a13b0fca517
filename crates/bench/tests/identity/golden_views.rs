//! Golden pins of the derived views — the Chrome trace bytes and the
//! critical path — on two runs: a profiled pCLOUDS training run on the
//! asynchronous engine, and a machine-level run whose fault plan fires
//! every `fault:*` instant the exporter knows (link drop, link delay, a
//! poisoned receive, transient disk errors on the synchronous path and on
//! the device). The fixtures under `golden/` were computed at commit
//! `ec0e1a5`, before the views were rebuilt on the event DAG. One line has
//! moved since: `trace_fnv` of the pCLOUDS run, twice — when the 124
//! `cgm.reduce_scatter.halving` begin events lost their `bytes` argument,
//! and when the engine began to drop read-ahead that does not fit beside
//! the running task's dirty pages (the pool gauges and device requests in
//! the trace moved; the makespan and critical path did not, and no other
//! line of the fixture differs).
//!
//! Pinned exactly: the FNV-1a hash of `chrome_trace_json` and the makespan
//! bits. Pinned to 1e-9: `by_span` and every positive-length segment of
//! the critical chain (zero-length segments carry no time and are not part
//! of the contract).

use pdc_bench::harness::{Experiment, Scale};
use pdc_cgm::{
    chrome_trace_json, critical_path, Cluster, FaultPlan, MachineConfig, OpKind, ProcStats,
};
use pdc_pario::EngineConfig;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// The pinned facts of one run, one per line; floats print shortest
/// round-trip so the fixture loses nothing.
fn render(stats: &[ProcStats]) -> String {
    let cp = critical_path(stats);
    let mut out = format!(
        "trace_fnv {:#018x}\nmakespan_bits {:#018x}\n",
        fnv1a(chrome_trace_json(stats).as_bytes()),
        cp.makespan.to_bits()
    );
    for (name, secs) in cp.by_span.iter().filter(|(_, secs)| *secs > 0.0) {
        out.push_str(&format!("by_span {name} {secs:?}\n"));
    }
    for seg in cp.segments.iter().filter(|s| s.end > s.start) {
        out.push_str(&format!(
            "segment {} {} {:?} {:?}\n",
            seg.rank,
            seg.span.unwrap_or("-"),
            seg.start,
            seg.end
        ));
    }
    out
}

/// Line-by-line comparison: words must match exactly, except that two
/// words that both parse as decimal floats may differ by 1e-9.
fn assert_matches(got: &str, want: &str, what: &str) {
    let (g, w): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    assert_eq!(
        g.len(),
        w.len(),
        "{what}: line count moved\n--- got ---\n{got}"
    );
    for (n, (gl, wl)) in g.iter().zip(&w).enumerate() {
        let (gw, ww): (Vec<&str>, Vec<&str>) = (gl.split(' ').collect(), wl.split(' ').collect());
        let same = gw.len() == ww.len()
            && gw.iter().zip(&ww).all(|(a, b)| {
                a == b
                    || matches!(
                        (a.parse::<f64>(), b.parse::<f64>()),
                        (Ok(x), Ok(y)) if !a.starts_with("0x") && (x - y).abs() <= 1e-9
                    )
            });
        assert!(same, "{what}: line {}: got `{gl}`, pinned `{wl}`", n + 1);
    }
}

fn pclouds_profiled() -> Vec<ProcStats> {
    let engine = EngineConfig::new(512 * 1024);
    Experiment::new(20_000, 4, Scale::Quick)
        .engine(&engine)
        .profiled()
        .run()
        .run
        .stats
}

/// Three ranks pass messages around a ring for 24 rounds under a fault
/// plan hot enough that every fault path fires: dropped attempts that
/// succeed on retry, sends that fail permanently (the receiver takes a
/// poison tombstone), delayed deliveries, and transient read errors on
/// both the synchronous disk path and the asynchronous device.
fn faulty_ring() -> Vec<ProcStats> {
    let mut faults = FaultPlan::with_seed(15);
    faults.link.drop_prob = 0.2;
    faults.link.delay_prob = 0.3;
    faults.link.max_retries = 1;
    faults.disk.read_error_prob = 0.3;
    faults.disk.max_retries = 8;
    let cfg = MachineConfig {
        record: true,
        spans: true,
        gauges: true,
        faults,
        ..MachineConfig::default()
    };
    Cluster::with_config(3, cfg)
        .run(|proc| {
            let (rank, p) = (proc.rank(), proc.nprocs());
            let (next, prev) = ((rank + 1) % p, (rank + p - 1) % p);
            proc.in_span("ring.run", &[("rank", rank as i64)], |proc| {
                for round in 0..24u32 {
                    let ticket = proc
                        .try_io_device_submit(64 << 10, true)
                        .expect("device read within the retry budget");
                    proc.in_span("ring.work", &[("round", round as i64)], |p| {
                        let load = 1 + (rank as u64 * 7 + round as u64 * 3) % 5;
                        p.charge(OpKind::Misc, 100_000 * load);
                        p.try_disk_read_ws(16 << 10, 16 << 10)
                            .expect("sync read within the retry budget");
                    });
                    proc.in_span("ring.exchange", &[], |p| {
                        let _ = p.try_send(next, round, &vec![round as u64; 512]);
                        let _ = p.try_recv::<Vec<u64>>(prev, round);
                    });
                    proc.in_span("ring.drain", &[], |p| p.io_device_wait(ticket));
                }
                proc.io_device_sync();
            });
        })
        .stats
}

#[test]
fn pclouds_profiled_views_are_pinned() {
    assert_matches(
        &render(&pclouds_profiled()),
        include_str!("golden/pclouds_profiled.txt"),
        "pclouds profiled",
    );
}

#[test]
fn faulty_ring_views_are_pinned() {
    let stats = faulty_ring();
    // The run must actually exercise every instant the pin is about.
    let json = chrome_trace_json(&stats);
    for needle in [
        "fault:link-drop",
        "fault:link-delay",
        "fault:disk-error\"",
        "fault:disk-error-async",
    ] {
        assert!(json.contains(needle), "faulty ring never produced {needle}");
    }
    let total: pdc_cgm::Counters = stats.iter().fold(Default::default(), |mut t, s| {
        t.merge(&s.counters);
        t
    });
    assert!(total.link_failures > 0, "no send failed permanently");
    assert!(total.link_retries > 0 && total.link_delays > 0 && total.disk_retries > 0);
    assert_matches(
        &render(&stats),
        include_str!("golden/faulty_ring.txt"),
        "faulty ring",
    );
}
