//! Span semantics: nesting invariants, panic messages on unbalanced
//! instrumentation, bit-identity of spans-enabled runs, trace-event
//! attribution and fault-time accounting.

use pdc_cgm::{Cluster, FaultPlan, MachineConfig, OpKind};

fn spans_config() -> MachineConfig {
    MachineConfig {
        spans: true,
        ..MachineConfig::default()
    }
}

/// A workload touching every charge path: compute, disk, collectives.
fn workload(proc: &mut pdc_cgm::Proc) -> u64 {
    proc.charge(OpKind::RecordScan, 500 * (proc.rank() as u64 + 1));
    proc.disk_read_ws(1 << 16, 1 << 20);
    let sum: u64 = proc.allreduce(proc.rank() as u64, |a, b| a + b);
    proc.barrier();
    proc.disk_write_ws(1 << 14, 1 << 22);
    sum
}

#[test]
fn spans_record_nesting_and_rollups() {
    let out = Cluster::with_config(2, spans_config()).run(|proc| {
        let outer = proc.span("outer", &[("k", 7)]);
        let inner = proc.span("inner", &[]);
        proc.charge(OpKind::Misc, 10_000);
        proc.span_end(inner);
        proc.charge(OpKind::Misc, 5_000);
        proc.span_end(outer);
    });
    for s in &out.stats {
        assert_eq!(s.spans.len(), 2);
        let outer = &s.spans[0];
        let inner = &s.spans[1];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.attrs, vec![("k", 7)]);
        assert_eq!(outer.parent, None);
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.parent, Some(0));
        assert_eq!(inner.depth, 1);
        // Parent spans the child; rollups are inclusive.
        assert!(outer.start <= inner.start && inner.end <= outer.end);
        assert!(inner.seconds() > 0.0);
        assert_eq!(outer.delta.ops[OpKind::Misc.index()], 15_000);
        assert_eq!(inner.delta.ops[OpKind::Misc.index()], 10_000);
        assert!(outer.delta.compute_time > inner.delta.compute_time);
    }
}

#[test]
#[should_panic(expected = "spans must close in LIFO order")]
fn out_of_order_close_panics_usefully() {
    Cluster::with_config(1, spans_config()).run(|proc| {
        let outer = proc.span("outer", &[]);
        let inner = proc.span("inner", &[]);
        proc.span_end(outer); // wrong: inner is still open
        proc.span_end(inner);
    });
}

#[test]
#[should_panic(expected = "still open at run end")]
fn leaking_an_open_span_panics_at_run_end() {
    Cluster::with_config(1, spans_config()).run(|proc| {
        let token = proc.span("leaked", &[]);
        // Deliberately never closed.
        std::mem::forget(token);
    });
}

#[test]
fn spans_enabled_is_bit_identical_to_disabled() {
    // Spans are pure observation: enabling them must not move a single
    // virtual clock bit, on any rank, with or without event recording.
    let baseline = Cluster::new(6).run(workload);
    let mut cfg = spans_config();
    cfg.record = true;
    let observed = Cluster::with_config(6, cfg).run(|proc| {
        proc.in_span("all", &[], workload)
    });
    assert_eq!(baseline.results, observed.results);
    for (a, b) in baseline.stats.iter().zip(&observed.stats) {
        assert_eq!(
            a.finish_time.to_bits(),
            b.finish_time.to_bits(),
            "rank {}: finish time diverged with spans enabled",
            a.rank
        );
    }
}

#[test]
fn disabled_spans_record_nothing() {
    let out = Cluster::new(2).run(|proc| {
        assert!(!proc.spans_enabled());
        proc.in_span("ignored", &[], |p| p.charge(OpKind::Misc, 100));
    });
    assert!(out.stats.iter().all(|s| s.spans.is_empty()));
}

#[test]
fn events_carry_the_innermost_span() {
    let mut cfg = spans_config();
    cfg.record = true;
    let out = Cluster::with_config(2, cfg).run(|proc| {
        proc.charge(OpKind::Misc, 100); // outside any span
        proc.in_span("outer", &[], |p| {
            p.charge(OpKind::Misc, 100);
            p.in_span("inner", &[], |p| p.charge(OpKind::Misc, 100));
        });
    });
    // The replayed view attributes every event to the span open around it.
    let graph = pdc_cgm::EventGraph::from_stats(&out.stats);
    let view = pdc_cgm::replay(&graph, &pdc_cgm::CostOverride::identity());
    let s = &out.stats[0];
    let charges: Vec<Option<&str>> = graph.ranks[0]
        .iter()
        .enumerate()
        .filter(|(_, ev)| matches!(ev, pdc_cgm::Ev::Compute { .. }))
        .map(|(i, _)| view.span[0][i].map(|sp| s.spans[sp as usize].name))
        .collect();
    assert_eq!(charges, [None, Some("outer"), Some("inner")]);
}

#[test]
fn collectives_open_their_own_spans() {
    let out = Cluster::with_config(4, spans_config()).run(|proc| {
        let _: u64 = proc.allreduce(1u64, |a, b| a + b);
        proc.barrier();
    });
    for s in &out.stats {
        let names: Vec<&str> = s.spans.iter().map(|sp| sp.name).collect();
        assert!(names.contains(&"cgm.allreduce"), "got {names:?}");
        assert!(names.contains(&"cgm.barrier"), "got {names:?}");
    }
}

#[test]
fn collective_spans_record_payload_bytes() {
    let out = Cluster::with_config(4, spans_config()).run(|proc| {
        let v: u64 = proc.allreduce(1u64, |a, b| a + b);
        let _ = proc.reduce(0, v, |a, b| a + b);
        let _ = proc.gather(0, v);
        let _ = proc.all_gather(v);
        let _ = proc.scan(v, |a, b| a + b);
        let _ = proc.min_loc(proc.rank() as f64);
        let _ = proc.all_to_all(vec![v; proc.nprocs()]);
        let _ = proc.reduce_scatter_blocks(vec![vec![v; 2]; proc.nprocs()], |a, b| a + b);
        let _ = proc.try_allreduce(v, |a, b| a + b);
    });
    for s in &out.stats {
        for sp in &s.spans {
            // One span name per schedule, whichever name it was called by.
            assert!(!sp.name.contains("try_"), "span {} names a twin", sp.name);
            // A reduce-scatter's payload changes size every round; its span
            // carries no estimate, its counter delta the bytes really sent.
            if sp.name.starts_with("cgm.reduce_scatter") {
                assert!(sp.delta.bytes_sent > 0, "span {} sent nothing", sp.name);
                continue;
            }
            // Every other collective root span sizes its payload; only the
            // barrier (no payload) and non-root broadcast sides may omit it.
            if sp.name.starts_with("cgm.") && !sp.name.contains("barrier") {
                let bytes = sp.attrs.iter().find(|(k, _)| *k == "bytes");
                assert!(bytes.is_some(), "span {} lacks a bytes attr", sp.name);
                assert!(bytes.unwrap().1 > 0, "span {} bytes not positive", sp.name);
            }
        }
    }
}

#[test]
fn fault_time_is_separated_from_comm_and_io() {
    let mut plan = FaultPlan::with_seed(11);
    plan.link.drop_prob = 0.2;
    plan.disk.read_error_prob = 0.2;
    let cfg = MachineConfig {
        faults: plan,
        ..MachineConfig::default()
    };
    let out = Cluster::with_config(4, cfg).run(|proc| {
        for _ in 0..50 {
            proc.try_disk_read_ws(4096, usize::MAX).expect("retries recover");
        }
        for _ in 0..20 {
            let _ = proc.try_allreduce(proc.rank() as u64, |a, b| a + b);
        }
    });
    let total = out.total_counters();
    assert!(
        total.link_retries + total.disk_retries > 0,
        "fault plan must actually fire"
    );
    assert!(total.fault_time > 0.0, "retries must charge fault_time");
    // The residual identity holds per rank: components sum to finish time.
    for s in &out.stats {
        let sum = s.counters.compute_time
            + s.counters.comm_time
            + s.counters.io_time
            + s.counters.fault_time
            + s.idle_time();
        assert!(
            (sum - s.finish_time).abs() < 1e-9,
            "rank {}: {sum} != {}",
            s.rank,
            s.finish_time
        );
    }
}

#[test]
fn zero_fault_runs_report_zero_fault_time() {
    let out = Cluster::new(4).run(workload);
    for s in &out.stats {
        assert_eq!(s.counters.fault_time, 0.0);
        assert_eq!(s.fault_time(), 0.0);
    }
}
